// Command benchjson converts `go test -bench` text output into the
// repository's bench trajectory artifact: one JSON document per PR with the
// aggregated benchmark metrics, the derived simulator event-cost figures,
// and the regression-study wall time, so CI runs accumulate comparable
// performance snapshots over time (BENCH_<pr>.json).
//
// Usage:
//
//	go test -bench 'SimulatorEventThroughput|Inc|WorkloadEngine|Verify' \
//	    -benchmem -count 3 -benchtime 100x . | benchjson -pr 8 -wall-ms 2100 > BENCH_8.json
//
// Benchmark lines repeated by -count N are aggregated by name (mean per
// metric, run count recorded). Non-benchmark lines are ignored, so the raw
// `go test` stream pipes straight in. The simulator's event cost is derived
// from BenchmarkSimulatorEventThroughput: one central-counter Inc is three
// simulator events (the operation-start event plus one delivery per
// message, and central exchanges request + reply), so ns/event and
// allocs/event are the per-op figures divided by three, with the divisor
// recorded in the artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// eventThroughputBench is the benchmark the event-cost derivation reads.
const eventThroughputBench = "SimulatorEventThroughput"

// eventsPerOp is that benchmark's op→event conversion: operation start plus
// two message deliveries per central-counter increment.
const eventsPerOp = 3

// benchEntry is one aggregated benchmark in the artifact.
type benchEntry struct {
	Name string `json:"name"`
	// Runs is the number of -count repetitions aggregated into Metrics.
	Runs int `json:"runs"`
	// Metrics maps unit → mean value over the runs (e.g. "ns/op": 712.4).
	Metrics map[string]float64 `json:"metrics"`
}

// artifact is the BENCH_<pr>.json document.
type artifact struct {
	Schema string `json:"schema"`
	PR     int    `json:"pr,omitempty"`
	Go     string `json:"go"`
	// EventNs and EventAllocs are the simulator's per-event cost derived
	// from the event-throughput benchmark; EventsPerOp records the divisor.
	EventNs     float64 `json:"event_ns,omitempty"`
	EventAllocs float64 `json:"event_allocs,omitempty"`
	EventsPerOp int     `json:"events_per_op,omitempty"`
	// RegressionWallMs is the wall-clock duration of the regression study,
	// measured by the caller and passed through -wall-ms (0 = not measured).
	RegressionWallMs int64        `json:"regression_study_wall_ms,omitempty"`
	Benchmarks       []benchEntry `json:"benchmarks"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	pr := fs.Int("pr", 0, "PR number recorded in the artifact")
	wallMs := fs.Int("wall-ms", 0, "regression-study wall time in milliseconds, measured by the caller")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q (benchmark text is read from stdin)", fs.Arg(0))
	}

	entries, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	art := artifact{
		Schema:           "distcount-bench/v1",
		PR:               *pr,
		Go:               runtime.Version(),
		RegressionWallMs: int64(*wallMs),
		Benchmarks:       entries,
	}
	for _, e := range entries {
		if strings.TrimPrefix(e.Name, "Benchmark") == eventThroughputBench {
			art.EventNs = e.Metrics["ns/op"] / eventsPerOp
			art.EventAllocs = e.Metrics["allocs/op"] / eventsPerOp
			art.EventsPerOp = eventsPerOp
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(art)
}

// parseBench aggregates the Benchmark... lines of a `go test -bench` stream
// by name: mean per metric over the -count repetitions. The trailing
// -GOMAXPROCS suffix is stripped so artifacts from machines with different
// core counts aggregate under the same name.
func parseBench(in io.Reader) ([]benchEntry, error) {
	type acc struct {
		runs int
		sums map[string]float64
	}
	accs := map[string]*acc{}
	var order []string

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A benchmark line is: name iterations (value unit)+ — and the name
		// starts with "Benchmark". Anything else (test output, PASS, ok) is
		// not ours.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkFoo ... --- FAIL" shapes
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip -GOMAXPROCS
			}
		}
		a := accs[name]
		if a == nil {
			a = &acc{sums: map[string]float64{}}
			accs[name] = a
			order = append(order, name)
		}
		a.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", sc.Text(), fields[i])
			}
			a.sums[fields[i+1]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	entries := make([]benchEntry, 0, len(order))
	for _, name := range order {
		a := accs[name]
		metrics := make(map[string]float64, len(a.sums))
		for unit, sum := range a.sums {
			metrics[unit] = sum / float64(a.runs)
		}
		entries = append(entries, benchEntry{Name: name, Runs: a.runs, Metrics: metrics})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}
