// Command bench measures the checker's verdicts end to end and layer by
// layer, and checks every output it times against a golden.
//
// Each repetition runs cold in a fresh child process, one at a time (a
// closed loop with one operation in flight), and repetitions go round-robin
// across the selected workloads. See README.md for the workloads, the
// metrics and how to read them. Run it through bench/run.sh, which builds
// this program and the hundred CLI from source:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// tracedReps is the number of traced repetitions, each paired with an
// untraced one, per workload in a fixed-count traced run.
const tracedReps = 3

// repTimeout bounds one child process; no repetition comes near it.
const repTimeout = 150 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed (live-refine runs adversary seeds seed..seed+31; the other workloads are fixed)")
	secs := fs.Float64("seconds", 0, "start repetitions for this long (0: the fixed repetition counts in README.md)")
	trace := fs.Int("trace", 0, "1: traced run, adding the per-layer metrics")
	child := fs.String("child", "", "internal: run one repetition of this workload and print its result")
	start := fs.Int64("start", 0, "internal: Unix time in ns at which the parent started this child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *child != "" {
		return runChild(*child, *seed, *trace == 1, time.Unix(0, *start))
	}

	ws := workloads
	if *name != "all" {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	results := measure(ctx, self, *seed, ws, *trace == 1, *secs)
	failed := 0
	for _, w := range ws {
		rep, err := aggregate(results[w.name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(os.Stdout, w.name, rep, *trace == 1)
		failed += rep.failed
		if len(ws) == 1 {
			res, err := resultOf(rep, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runChild is the child side of one repetition: it runs the workload and
// prints the result as its only line of standard output.
func runChild(name string, seed int64, traced bool, start time.Time) int {
	w := lookup(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	r := w.run(seed, traced, start)
	if r.PeakRSSMB == 0 {
		r.PeakRSSMB = peakRSSMB()
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure runs repetitions round-robin across ws, so that a burst of host
// noise lands a little on every workload rather than all on one. With
// secs > 0 it starts rounds while the next one, estimated by the longest so
// far, still ends within secs; otherwise it runs each workload's fixed
// count. A traced run pairs every traced repetition with an untraced one,
// the baseline for trace_overhead_frac.
func measure(ctx context.Context, self string, seed int64, ws []*workload, traced bool, secs float64) map[string][]repResult {
	kinds := []bool{false}
	if traced {
		kinds = append(kinds, true)
	}
	count := func(w *workload) int {
		if traced {
			return tracedReps
		}
		return w.reps
	}
	results := map[string][]repResult{}
	begin := time.Now()
	var longest float64
	for round := 0; ctx.Err() == nil; round++ {
		if secs > 0 && round > 0 && seconds(begin)+longest > secs {
			break
		}
		roundStart := time.Now()
		ran := false
		for _, w := range ws {
			if secs <= 0 && round >= count(w) {
				continue
			}
			for _, k := range kinds {
				r := oneRep(ctx, self, seed, w, k)
				results[w.name] = append(results[w.name], r)
				fmt.Fprintf(os.Stderr, "bench: %s rep %d traced=%v wall=%.3fs probe=%.1fms setup=%.4fs rss=%.1fMiB failed=%d/%d\n",
					w.name, round+1, k, r.WallS, r.ProbeMS, r.SetupS, r.PeakRSSMB, r.Failed, r.Attempted)
				for _, e := range r.Errors {
					fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
				}
				ran = true
			}
		}
		if !ran {
			break
		}
		longest = max(longest, seconds(roundStart))
	}
	return results
}

// oneRep runs one repetition of w in a child process, with the host probe
// run just before and just after it and the stolen time read around it. A
// repetition that could not run is one failed operation without timings.
func oneRep(ctx context.Context, self string, seed int64, w *workload, traced bool) repResult {
	before := probe()
	steal := stealSeconds()
	r, err := spawnRep(ctx, self, seed, w, traced)
	if err != nil {
		r = repResult{Traced: traced}
		r.check(err)
	}
	r.StealS = stealSeconds() - steal
	r.ProbeMS = float64(before+probe()) / 2 / float64(time.Millisecond)
	return r
}

func spawnRep(ctx context.Context, self string, seed int64, w *workload, traced bool) (repResult, error) {
	dir, err := os.MkdirTemp("", "rep-*")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, self, "-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-start", strconv.FormatInt(start.UnixNano(), 10))
	out, _, err := runCmd(cmd, dir)
	if err != nil {
		return repResult{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var r repResult
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return repResult{}, fmt.Errorf("%s child output: %w", w.name, err)
	}
	return r, nil
}

// runCmd runs cmd with its temporary files in dir, and returns its
// standard output and the peak resident set getrusage reports for it, in
// MiB. The process is killed if this one dies first.
func runCmd(cmd *exec.Cmd, dir string) ([]byte, float64, error) {
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out.Bytes(), rss, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}
