// Command perfbench is the repository's benchmark. It runs one named
// workload through the public API at a given seed, checks the outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a separate traced run) as the last line of its standard output.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times each run sets the workload up; setup_s is the
// median, and the last set-up state is the one measured.
const setupReps = 3

// minRounds is the fewest measured rounds a run takes, however short its
// window.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest, tune or colocate")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := newWorkload(*name)
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload ingest|tune|colocate --seed n --seconds s>=1 --trace 0|1\n")
		return 2
	}

	stamp := map[string]any{
		"workload":       *name,
		"seed":           *seed,
		"seconds":        *secs,
		"trace":          *traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         envOr("PERFBENCH_COMMIT", "unknown"),
		"source_digest":  envOr("PERFBENCH_SOURCE_DIGEST", "unknown"),
		"setup_reps":     setupReps,
		"started_at_utc": time.Now().UTC().Format(time.RFC3339),
	}
	printJSON(stdout, map[string]any{"env": stamp})

	var setups []float64
	for i := 0; i < setupReps; i++ {
		// A fresh value per set-up, so the previous one's inputs are
		// garbage before the collection and never count twice in peak RSS.
		w, _ = newWorkload(*name)
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(*seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The host's state right after the busy set-up, and again right after
	// the measured phase: an idle host does not show it.
	handoffBefore := crossCPUHandoffNs()

	window := time.Duration(*secs) * time.Second
	var rounds []roundResult
	res := result{Metrics: map[string]metric{}}
	report := map[string]any{}
	if *traced == 1 {
		rec := newRecorder()
		m, rs, rep, err := tracedRun(w, window, rec)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		rounds, res.Metrics, report = rs, m, rep
		path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		report["spans"] = path
	} else {
		var err error
		rounds, err = measure(w, window)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.Metrics = endToEnd(rounds, setups)
	}

	var problems []string
	var rates []float64
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		if r.drainWall > 0 {
			rates = append(rates, float64(r.examples)/r.drainWall.Seconds())
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report["cross_cpu_handoff_ns"] = []float64{handoffBefore, crossCPUHandoffNs()}
	report["rounds"] = len(rounds)
	report["round_examples_per_s"] = rates
	report["setup_s"] = setups
	if len(problems) > 0 {
		report["problems"] = problems
	}
	printJSON(stdout, map[string]any{"report": report})
	printJSON(stdout, res)
	if !res.Correct {
		for _, p := range problems {
			fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// measure runs untraced rounds until the window has passed.
func measure(w workload, window time.Duration) ([]roundResult, error) {
	var rounds []roundResult
	plain := &roundCtx{wrap: identity}
	for start := time.Now(); len(rounds) < minRounds || time.Since(start) < window; {
		runtime.GC()
		r, err := w.round(plain)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// endToEnd reduces the rounds to the end-to-end metrics, each a median
// over rounds except peak memory, which is the process's high-water mark.
func endToEnd(rounds []roundResult, setups []float64) map[string]metric {
	var rates, tunes, accs []float64
	var attempted, failed int64
	for _, r := range rounds {
		rates = append(rates, float64(r.examples)/r.drainWall.Seconds())
		tunes = append(tunes, r.tune.Seconds())
		accs = append(accs, r.accuracy)
		attempted += r.attempted
		failed += r.failed
	}
	return map[string]metric{
		"examples_per_s":      {median(rates), "examples/s"},
		"tune_s":              {median(tunes), "s"},
		"prediction_accuracy": {median(accs), "ratio"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"setup_s":             {median(setups), "s"},
		"delivered_fraction":  {1 - float64(failed)/float64(attempted), "ratio"},
	}
}

// peakRSSMB is the process's peak resident memory. One process runs one
// workload, so this is the workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error": %q}`, err.Error()))
	}
	fmt.Fprintln(w, string(b))
}
