package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Host identifies the machine and build a result came from. Host drift
// probes run before and after each run; they are recorded beside the
// metrics, not gated, so a slow or noisy host shows in the output.
type Host struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	SourceHash string   `json:"source_sha256"`
	ApspdFlags []string `json:"apspd_flags"`
}

func hostStamp(root string, flags []string) Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(root),
		ApspdFlags: flags,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sourceHash digests the program's Go sources and go.mod, which names
// the code under test when the checkout is not a git repository.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Drift is one before-or-after host probe: the median time of a fixed
// compute loop and of a 64 MiB streaming pass.
type Drift struct {
	ComputeMs float64 `json:"compute_ms"`
	StreamMs  float64 `json:"stream_ms"`
}

var driftSink uint64

func probeDrift() Drift {
	const reps = 5
	comp := make([]float64, reps)
	for i := range comp {
		start := time.Now()
		x := uint64(i + 1)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		driftSink += x
		comp[i] = ms(time.Since(start))
	}
	buf := make([]uint64, 8<<20) // 64 MiB
	for i := range buf {
		buf[i] = uint64(i)
	}
	stream := make([]float64, reps)
	for i := range stream {
		start := time.Now()
		var s uint64
		for j := range buf {
			s += buf[j]
			buf[j] = s
		}
		driftSink += s
		stream[i] = ms(time.Since(start))
	}
	return Drift{ComputeMs: Median(comp), StreamMs: Median(stream)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
