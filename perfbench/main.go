// Command perfbench is the repository's benchmark: four workloads that each
// stress one layer of the lab (protocol handlers and sim sends, the
// open-loop engine floor, the keyed counting service, real goroutines),
// measured end to end with tracing off and split per layer in a separate
// traced pass. Every timing is taken from outside the program, around the
// interfaces and public calls the benchmark itself makes.
//
// Usage:
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end (trace 0) or per-layer (trace 1) metrics.
// The command exits 1 on any guarantee violation, determinism mismatch or
// traced-run fidelity mismatch, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef names one reported metric, its unit, and which direction is
// better ("higher" or "lower").
type metricDef struct{ name, unit, better string }

// endToEnd are the trace-0 metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "ops/s", "higher"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"latency_p50_ms", "ms", "lower"},
}

// protoAlgos are the algorithms whose protocol cost is split out per name.
var protoAlgos = []string{"combining", "cnet", "quorum-majority", "central"}

// perLayer are the trace-1 metrics, reported on every workload; a layer a
// workload does not run through, or that the benchmark cannot wrap there,
// reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.next_ns_per_req", "ns/req", "lower"},
		{"engine.self_ns_per_op", "ns/op", "lower"},
		{"engine.queue_delay_p50", "ticks", "lower"},
		{"engine.queue_delay_p99", "ticks", "lower"},
		{"engine.dropped", "count", "lower"},
		{"engine.peak_in_flight", "count", "higher"},
		{"sim.schedule_ns_per_op", "ns/op", "lower"},
		{"sim.send_ns_per_msg", "ns/msg", "lower"},
		{"sim.events_per_op", "events/op", "lower"},
		{"sim.ops_per_tick", "ops/tick", "higher"},
		{"sim.knee_ops_per_tick", "ops/tick", "higher"},
		{"sim.p99_ticks", "ticks", "lower"},
		{"protocol.initiate_ns_per_op", "ns/op", "lower"},
		{"protocol.deliver_ns_per_msg", "ns/msg", "lower"},
		{"protocol.msgs_per_op", "msgs/op", "lower"},
	}
	for _, a := range protoAlgos {
		defs = append(defs,
			metricDef{"protocol.initiate_ns_per_op." + a, "ns/op", "lower"},
			metricDef{"protocol.deliver_ns_per_msg." + a, "ns/msg", "lower"},
			metricDef{"protocol.msgs_per_op." + a, "msgs/op", "lower"})
	}
	return append(defs,
		metricDef{"countersvc.start_ns_per_op", "ns/op", "lower"},
		metricDef{"countersvc.step_ns_per_event", "ns/event", "lower"},
		metricDef{"countersvc.migrations", "count", "lower"},
		metricDef{"countersvc.max_shard_share", "ratio", "lower"},
		metricDef{"rt.service_p50_us", "us", "lower"},
		metricDef{"rt.service_p99_us", "us", "lower"},
		metricDef{"rt.handler_us_per_op", "us/op", "lower"},
		metricDef{"rt.wait_us_per_op", "us/op", "lower"},
		metricDef{"rt.roundtrip_ns", "ns", "lower"},
		metricDef{"verify.ns_per_op", "ns/op", "lower"},
		metricDef{"verify.violations", "count", "lower"},
		metricDef{"verify.duplicates", "count", "lower"},
		metricDef{"runtime.gc_cycles_per_kop", "count/kop", "lower"},
		metricDef{"runtime.gc_pause_ns_per_op", "ns/op", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

// report is one workload's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string           // each one makes the run incorrect
	metrics   map[string]float64 // the contract metrics of the pass
	lines     []string           // human-readable report
}

func newReport(name string) *report {
	return &report{workload: name, metrics: map[string]float64{}}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name, why string
	run       func(rep *report, seed uint64, seconds float64, traced bool) error
}

var workloads = []workloadDef{
	{"sim-protocol", "combining, cnet and quorum-majority on the simulator: protocol handlers and sim sends do most of the work (11-160 msgs/op)", runSimProtocol},
	{"sim-open", "central at 2 msgs/op under an open-loop ramp: the engine driver and verification floor that protocol changes must not move", runSimOpen},
	{"keyed-skew", "the only workload through countersvc: key routing, the merged event loop over 5 networks, a live hot-key migration", runKeyedSkew},
	{"rt-ladder", "the only workload on real goroutines, mailboxes and OS timers (combining at n=8 over a fixed ladder of offered rates)", runRTLadder},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// Every cell runs on this goroutine; pinning it to one OS thread makes
	// the thread's CPU clock the engine's own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" or all")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var reps []*report
	for _, w := range defs {
		passes := []bool{*trace == 1}
		if *name == "all" {
			passes = []bool{false, true}
		}
		for _, traced := range passes {
			rep := newReport(w.name)
			if err := w.run(rep, *seed, *seconds, traced); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "## %s (%s pass): %s\n", w.name, passName(traced), w.why)
			for _, l := range rep.lines {
				fmt.Fprintln(stdout, "  "+l)
			}
			for _, p := range rep.problems {
				fmt.Fprintln(stdout, "  FAIL: "+p)
			}
			if err := checkMetrics(rep, traced); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			reps = append(reps, rep)
		}
	}
	line, ok, err := resultLine(reps, len(reps) > 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "end-to-end"
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// checkMetrics asserts a pass produced exactly its contract metric set.
func checkMetrics(rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(rep.metrics) != len(defs) {
		return fmt.Errorf("produced %d metrics, the %s pass defines %d", len(rep.metrics), passName(traced), len(defs))
	}
	for _, d := range defs {
		if err := validName(d.name); err != nil {
			return err
		}
		if _, ok := rep.metrics[d.name]; !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object. With several reports (--workload
// all) metric names are prefixed by their workload and pass.
func resultLine(reps []*report, prefixed bool) (string, bool, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rep := range reps {
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		if len(rep.problems) > 0 {
			out.Correct = false
		}
		defs := endToEnd
		if _, isLayer := rep.metrics[perLayer[0].name]; isLayer {
			defs = perLayer
		}
		for _, d := range defs {
			key := d.name
			if prefixed {
				key = rep.workload + "." + d.name
			}
			out.Metrics[key] = jsonMetric{Value: rep.metrics[d.name], Unit: d.unit}
		}
	}
	if out.Attempted < 1 {
		return "", false, fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), out.Correct, err
}
