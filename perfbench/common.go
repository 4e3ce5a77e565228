package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"moca/internal/sim"
)

// workRoot holds the run caches and trace files a run creates; it lives
// in the checkout's build directory and each run removes what it made.
var workRoot = filepath.Join(".bench_build", "work")

// scale sizes every workload. defaultScale is what the benchmark runs; the
// package test runs a reduced copy.
type scale struct {
	// Sweeps: measured instructions per core and the profiling window.
	SingleMeasure, MixMeasure, SweepWindow uint64
	// How many times each workload sets up; setup_s is the median.
	SweepSetups, ServeSetups int
	// MinPasses is the least number of whole sweeps or serving passes one
	// run measures.
	MinPasses int

	// Serving: the quota and profiling window every request carries.
	ServeMeasure, ServeWindow uint64
	// ServeApps restricts the serving key space (nil: the whole suite).
	ServeApps []string
	// Rounds of the request sequence, and per round: memo-hit repeats,
	// first touches of pre-stored keys, never-seen keys, trace sessions.
	Rounds, MemoPerRound, DiskPerRound, ColdPerRound, TracePerRound int
	// ConfigPerRound is the number of moca@config2 keys per round; 0
	// unless --config-probes is given (perfbench/README.md, Correctness).
	ConfigPerRound int
	// TraceApp is the application whose recorded trace sessions push.
	TraceApp string
}

func defaultScale() scale {
	return scale{
		SingleMeasure: 200_000,
		MixMeasure:    50_000,
		SweepWindow:   300_000,
		SweepSetups:   9,
		ServeSetups:   3,
		MinPasses:     2,

		ServeMeasure:  20_000,
		ServeWindow:   100_000,
		Rounds:        5,
		MemoPerRound:  300,
		DiskPerRound:  4,
		ColdPerRound:  20,
		TracePerRound: 4,
		TraceApp:      "mcf",
	}
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of v and whether at least ten
// samples lie beyond it, the rule every reported tail follows.
func tail(v []float64, q float64) (float64, bool) {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN(), false
	}
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return s[i], len(s)-1-i >= 10
}

// forEach runs fn(0..n-1) on NumCPU goroutines and returns the first error
// in index order.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resultDigest hashes a result's JSON with its observability snapshot
// removed, so traced and untraced runs of one simulation digest equal.
func resultDigest(res *sim.Result) (string, error) {
	cp := *res
	cp.Obs = nil
	raw, err := cp.MarshalJSON()
	if err != nil {
		return "", err
	}
	return rawDigest(raw), nil
}

func rawDigest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// combineDigests folds per-key digests (sorted by key) into one.
func combineDigests(perKey map[string]string) string {
	keys := make([]string, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "=" + perKey[k] + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host identifies the machine and code a result was measured on.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostStamp(workload string, seed int64) host {
	return host{
		Workload:   workload,
		Seed:       seed,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     vcsRevision(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// vcsRevision is the commit the binary was built from, when the build saw
// a repository ("unknown" in an exported tree; see Source).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so
// results from an exported tree with no commit still name their code.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		sum := sha256.Sum256(data)
		h.Write([]byte(filepath.ToSlash(p) + " " + hex.EncodeToString(sum[:]) + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
