package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
)

func TestSelectExperiments(t *testing.T) {
	exps := experiments(cli.Exploration{})
	all, err := selectExperiments(exps, nil)
	if err != nil || len(all) != len(exps) {
		t.Fatalf("no ids: got %d experiments, err %v; want all %d", len(all), err, len(exps))
	}
	// Case-insensitive, and suite order regardless of argument order.
	got, err := selectExperiments(exps, []string{"e11", "E05"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "E05" || got[1].id != "E11" {
		t.Fatalf("selected %v, want [E05 E11]", ids(got))
	}
	for _, args := range [][]string{{"E99"}, {"E01", "E99"}, {"E01", "x", "E22"}} {
		if got, err := selectExperiments(exps, args); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("%v: selected %v, err %v; want an unknown-experiment error", args, ids(got), err)
		}
	}
}

func ids(exps []experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.id)
	}
	return out
}

// TestUnknownExperimentExits2 runs the CLI in a child process: an unknown
// id among known ones must exit 2 with the error on stderr, before any
// experiment runs.
func TestUnknownExperimentExits2(t *testing.T) {
	if args := os.Getenv("HUNDRED_TEST_ARGS"); args != "" {
		os.Args = append([]string{"hundred"}, strings.Fields(args)...)
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
	cmd.Env = append(os.Environ(), "HUNDRED_TEST_ARGS=E01 E99")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown experiment E99") {
		t.Fatalf("stderr %q does not name the unknown experiment", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("experiments ran before the rejection: stdout %q", stdout.String())
	}
}
