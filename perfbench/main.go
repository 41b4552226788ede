// Command perfbench is the repository's end-to-end benchmark: it runs
// one named workload against apspd processes built from this checkout,
// as a closed loop from one client over one connection, checks every
// answer against its own Dijkstra reference, and prints the metrics as
// one JSON object on the last line of standard output.
//
// Usage (run.sh builds apspd and this command first):
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload's inputs in-process through each layer's public
// functions and prints the per-layer metrics (see traced.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of output, the benchmark's contract.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

const (
	setupRepeats = 3
	// measureCap bounds the timed loop when a slow host has not yet
	// collected the samples a percentile needs.
	measureCap = 100 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, query, churn or fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 12, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("apspd", "", "apspd binary built from the checkout")
	)
	flag.Parse()
	outDir := filepath.Join(*root, ".bench_build", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *bin == "" && *trace == 0 {
		fatal(errors.New("-apspd: path to the apspd binary is required"))
	}
	var (
		res    Result
		report map[string]interface{}
		err    error
	)
	before := probeDrift()
	if *trace == 1 {
		res, report, err = traced(*name, *seed, time.Duration(*seconds)*time.Second, outDir)
	} else {
		res, report, err = endToEnd(*name, *seed, time.Duration(*seconds)*time.Second, *bin, outDir)
	}
	if err != nil {
		fatal(err)
	}
	wl, _ := newWorkload(*name, *seed)
	report["host"] = hostStamp(*root, wl.topology().Flags())
	report["drift_before"] = before
	report["drift_after"] = probeDrift()
	report["workload"], report["seed"], report["trace"] = *name, *seed, *trace
	rep, err := json.Marshal(map[string]interface{}{"report": report})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(rep))
	last, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// endToEnd sets the workload up setupRepeats times on fresh processes,
// keeps the last set-up, and runs the timed loop on it.
func endToEnd(name string, seed int64, dur time.Duration, bin, outDir string) (Result, map[string]interface{}, error) {
	var (
		setups []float64
		run    *Run
		wl     workload
	)
	for i := 0; i < setupRepeats; i++ {
		if run != nil {
			run.stop()
		}
		wl, _ = newWorkload(name, seed)
		t0 := time.Now()
		r, err := start(bin, outDir, wl.topology(), fmt.Sprintf("%s-%d", name, i))
		if err != nil {
			return Result{}, nil, err
		}
		run = r
		if err := wl.setup(run); err != nil {
			run.stop()
			return Result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer run.stop()
	// Set-up traffic is not part of the measured loop.
	run.samples, run.attempted, run.failed = map[string][]float64{}, 0, 0
	primary, secondary := wl.classes()
	// From here the client collects only between requests (see
	// collectIdle), so its GC never competes with the server for the
	// CPUs while a request is in flight.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var words *Statsz
	begin := time.Now()
	for steps := 0; ; steps++ {
		if steps == wl.wordsAfter() {
			st, err := run.front.statsz()
			if err != nil {
				return Result{}, nil, err
			}
			words = &st
		}
		enough := len(run.samples[primary]) >= needSamples(0.9) && len(run.samples[secondary]) >= needSamples(0.9)
		if steps > wl.wordsAfter() && enough && time.Since(begin) >= dur {
			break
		}
		if time.Since(begin) > measureCap {
			return Result{}, nil, fmt.Errorf("%s: too few samples after %s (%d %s, %d %s)", name, measureCap,
				len(run.samples[primary]), primary, len(run.samples[secondary]), secondary)
		}
		if err := wl.step(run); err != nil && !errors.Is(err, errWrong) {
			return Result{}, nil, err
		}
		collectIdle()
	}
	measured := time.Since(begin).Seconds()
	rss, err := run.peakRSS()
	if err != nil {
		return Result{}, nil, err
	}

	m := map[string]Metric{
		"setup_s":         {Median(setups), "s"},
		"ok_frac":         {float64(run.attempted-run.failed) / float64(run.attempted), "ratio"},
		"peak_rss_mb":     {rss, "MiB"},
		"words_per_solve": {float64(words.WordsMoved) / float64(words.Solves+words.RepairFallbacks), "words"},
	}
	classes := map[string]interface{}{}
	for role, class := range map[string]string{"primary": primary, "secondary": secondary} {
		xs := run.samples[class]
		p50, err := Percentile(xs, 0.5)
		if err != nil {
			return Result{}, nil, fmt.Errorf("%s: %w", class, err)
		}
		p90, err := Percentile(xs, 0.9)
		if err != nil {
			return Result{}, nil, fmt.Errorf("%s: %w", class, err)
		}
		m[role+"_ms_p50"] = Metric{p50, "ms"}
		m[role+"_ms_p90"] = Metric{p90, "ms"}
		if role == "primary" {
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			m["primary_per_s"] = Metric{float64(len(xs)) / (sum / 1000), "1/s"}
		}
		classes[class] = classSummary(role, class, xs)
	}
	if len(m) != len(endToEndMetrics) {
		return Result{}, nil, fmt.Errorf("computed %d metrics, BENCHMARK.json lists %d", len(m), len(endToEndMetrics))
	}
	samplesFile := filepath.Join(outDir, fmt.Sprintf("samples-%s-%d.json", name, seed))
	if b, err := json.Marshal(run.samples); err == nil {
		if err := os.WriteFile(samplesFile, b, 0o644); err != nil {
			return Result{}, nil, err
		}
	}
	report := map[string]interface{}{
		"samples_file":    samplesFile,
		"setup_s_samples": setups,
		"measured_s":      measured,
		"classes":         classes,
		"wrong_answers":   run.wrong,
	}
	if name == "ingest" {
		report["solved_pairs_per_s"] = m["primary_per_s"].Value * ingestN * ingestN
	}
	res := Result{Correct: run.wrongs == 0, Attempted: run.attempted, Failed: run.failed, Metrics: m}
	return res, report, nil
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}

// collectIdle runs a full collection once the client's heap has grown
// 64 MiB past what survived the last one. It runs between requests,
// with automatic collection off.
func collectIdle() {
	metrics.Read(heapSample)
	if heapSample[1].Value.Uint64() > heapSample[0].Value.Uint64()+64<<20 {
		runtime.GC()
	}
}

// classSummary reports a request class's sample count and every
// percentile its samples support, named after the class (load_ms_p50).
func classSummary(role, class string, xs []float64) map[string]interface{} {
	out := map[string]interface{}{"role": role, "samples": len(xs)}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if v, err := Percentile(xs, q); err == nil {
			out[fmt.Sprintf("%s_ms_p%g", class, 100*q)] = v
		}
	}
	return out
}
