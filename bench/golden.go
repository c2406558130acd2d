package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"

	"repro/internal/flp"
)

//go:embed testdata
var testdata embed.FS

// verdictSummary is the part of an flp.Report a golden file pins: every
// count and verdict, and the witness length in place of the witness.
type verdictSummary struct {
	Protocol           string `json:"protocol"`
	States             int    `json:"states"`
	Edges              int    `json:"edges"`
	BivalentConfigs    int    `json:"bivalent_configs"`
	HasBivalentInitial bool   `json:"has_bivalent_initial"`
	DeciderFound       bool   `json:"decider_found"`
	AgreementViolated  bool   `json:"agreement_violated"`
	WitnessSteps       int    `json:"witness_steps"`
	ValidityViolated   bool   `json:"validity_violated"`
	NondecidingLasso   bool   `json:"nondeciding_lasso"`
	HasDeadlock        bool   `json:"has_deadlock"`
	Lively             bool   `json:"lively"`
	Lossy              bool   `json:"lossy"`
}

func summarizeReport(r flp.Report) verdictSummary {
	return verdictSummary{
		Protocol: r.Protocol, States: r.States, Edges: r.Edges,
		BivalentConfigs: r.BivalentConfigs, HasBivalentInitial: r.HasBivalentInitial,
		DeciderFound: r.DeciderFound, AgreementViolated: r.AgreementViolated,
		WitnessSteps: len(r.AgreementWitness), ValidityViolated: r.ValidityViolated,
		NondecidingLasso: r.NondecidingLasso != nil, HasDeadlock: r.HasDeadlock,
		Lively: r.Lively, Lossy: r.Lossy,
	}
}

// checkVerdict compares got with the golden summary in testdata/<file>.
func checkVerdict(file string, got verdictSummary) error {
	raw, err := testdata.ReadFile("testdata/" + file)
	if err != nil {
		return err
	}
	var want verdictSummary
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("golden %s: %w", file, err)
	}
	if got != want {
		g, _ := json.Marshal(got)
		return fmt.Errorf("verdict differs from golden %s: got %s", file, g)
	}
	return nil
}

// checkSuite compares the hundred CLI's stdout with the golden transcript.
func checkSuite(got []byte) error {
	want, err := testdata.ReadFile("testdata/paper-suite.golden")
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			break
		}
		if got[i] == '\n' {
			line++
		}
	}
	return fmt.Errorf("suite output differs from golden at line %d (%d bytes, want %d)", line, len(got), len(want))
}
