// Command perfbench is the repository benchmark. It runs one named
// workload through the entry points users call — exp.Runner for the
// paper's sweeps, an in-process wire server with wire clients and trace
// streaming for the serving mix — checks every output, and prints the
// metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload single-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated with observability and a CPU profile on, and the metrics
// are the per-layer ones. Build and run it from the root of a checkout
// with perfbench/run.sh; README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run produces.
type outcome struct {
	tally
	e2e    map[string]metric // end-to-end metrics (untraced run)
	extra  map[string]metric // end-to-end metrics printed but not in the JSON
	layers map[string]metric // per-layer metrics (traced run)
	// digest covers every result the run produced (observability
	// snapshots excluded); equal digests mean byte-identical results.
	// tracedDigest is the same over the traced run.
	digest, tracedDigest string
	notes                []string // human-readable lines printed before the JSON
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, extra: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// tally counts attempted and failed operations; any error or wrong output
// is a failed operation.
type tally struct {
	attempted, failed int
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// runFn runs one workload at the given scale.
type runFn func(sc scale, seed int64, seconds float64, traced bool) (*outcome, error)

var workloads = map[string]runFn{
	"single-sweep": func(sc scale, seed int64, seconds float64, traced bool) (*outcome, error) {
		return runSweep(sc, kindSingle, seed, seconds, traced)
	},
	"mix-sweep": func(sc scale, seed int64, seconds float64, traced bool) (*outcome, error) {
		return runSweep(sc, kindMix, seed, seconds, traced)
	},
	"serve-mixed": runServe,
}

func main() {
	name := flag.String("workload", "", "workload: single-sweep, mix-sweep or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	probes := flag.Bool("config-probes", false, "serve-mixed: add one moca@config2 key per round, which the server answers wrongly")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	start := time.Now()
	sc := defaultScale()
	if *probes {
		sc.ConfigPerRound = 1
	}
	out, err := run(sc, *seed, float64(*seconds), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	stamp, _ := json.Marshal(hostStamp(*name, *seed))
	fmt.Printf("host: %s\n", stamp)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("digest: %s\n", out.digest)
	out.extra["fail_ratio"] = metric{float64(out.failed) / float64(max(out.attempted, 1)), "ratio"}
	for _, n := range sortedNames(out.e2e) {
		fmt.Printf("end-to-end %-26s %14.4f %s\n", n, out.e2e[n].Value, out.e2e[n].Unit)
	}
	for _, n := range sortedNames(out.extra) {
		fmt.Printf("end-to-end %-26s %14.4f %s (printed only)\n", n, out.extra[n].Value, out.extra[n].Unit)
	}
	if *traced == 1 {
		for _, n := range sortedNames(out.layers) {
			fmt.Printf("per-layer  %-26s %14.4f %s\n", n, out.layers[n].Value, out.layers[n].Unit)
		}
	}
	fmt.Printf("process wall: %.1f s\n", time.Since(start).Seconds())

	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if *traced == 1 {
		rep.Metrics = out.layers
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
