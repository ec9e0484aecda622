// Command loadgen drives a distributed-counter algorithm with a concurrent
// workload scenario on the simulated network and reports throughput,
// latency percentiles, message loads, and the bottleneck-load trajectory —
// the workload engine's command-line face.
//
// Usage:
//
//	loadgen -algo ctree -scenario zipf -n 256 -ops 5000 -seed 1
//	loadgen -algo central -scenario bursty -n 64 -ops 2000 -format text
//	loadgen -algo central -scenario ramprate -mode open -service 1 -format text
//	loadgen -algo tokenring -scenario uniform -verify -format text
//	loadgen -sweep -algos central,ctree -scenarios uniform,zipf -format csv
//	loadgen -sweep -algos all -scenarios ramprate -mode open -service 1 -format text
//	loadgen -algo quorum-majority -scenario uniform -faults loss:0.01 -verify -format text
//	loadgen -study scaling -format text
//	loadgen -study faults -format text
//	loadgen -study regression -format text -baseline check baselines/default.json
//	loadgen -backend rt -algo central -n 8 -ops 2000 -service 1 -verify -format text
//	loadgen -study simvsreal -format text
//	loadgen -baseline diff old.json new.json
//	loadgen -algo central -keys 1024 -shards 4 -key-zipf-s 1.2 -verify -format text
//	loadgen -keys 64 -shards 4 -shard-algo central -migrate cnet@hot=0.25 -verify -format text
//	loadgen -study skew -format text
//	loadgen -algo gxu-threshold -scenario ramprate -mode open -service 1 -epsilon 0.1 -verify -format text
//	loadgen -study accuracy -format text
//	loadgen -list
//
// The default output is an indented JSON report on stdout; -format text
// renders a human-readable summary, -format csv the bottleneck time
// series. Runs are deterministic for a fixed -seed.
//
// With -mode open the driver admits every request at its scenario arrival
// time regardless of how many operations are in flight (closed loop
// throttles admission to completions instead): a bounded admission queue
// (-queue-cap) absorbs requests whose initiator is busy, queueing delay is
// reported separately from service latency, and a saturation knee is
// detected from per-rate-bucket p99 divergence. Pair it with -service,
// which gives every processor a finite per-message processing cost, to
// observe the paper's message-load bottleneck as a throughput ceiling —
// the "ramprate" scenario sweeps the offered rate through it.
//
// With -verify the engine additionally collects every operation's
// delivered value and checks it against the algorithm's claimed
// consistency guarantee: linearizability for central/ctree/combining,
// quiescent consistency for the counting and diffracting networks,
// duplicate-value accounting for the protocols that are only sequentially
// correct (tokenring, quorum-*), and the ε error bracket for the
// approximate algorithms (gxu-threshold, css-sample) — every value must
// stay within a factor 1±ε of the true count's concurrency bracket.
// -epsilon overrides an approximate algorithm's default claimed bound;
// tightening it makes the protocol synchronize more (and the verifier
// demand more). -study accuracy packages the exact-vs-approximate
// experiment: exact references and every ε-approximate algorithm over an
// ε ladder on the same open-loop ramp, verification on everywhere, with a
// machine-checkable "exact-vs-approx" verdict demanding that each
// approximate algorithm at its default ε sustain at least 2x the best
// exact knee (docs/EXPERIMENTS.md §12).
//
// With -faults the run executes under a deterministic, seeded
// fault-injection plan — message loss and duplication (probabilistic or
// every-Nth-send), processor crash/recover windows, rotating membership
// churn — on either backend (see internal/sim's fault layer). Lost events
// wedge their operations visibly instead of completing them silently;
// combined with -verify, fault-attributable anomalies are excused and
// measured while a completed operation without a value stays a hard
// violation. -study faults packages the grid: every algorithm under a
// fixed plan ladder (none, loss low/high, duplication, crash, churn) with
// verification on, reporting knee, wedged/unserved counts and excused
// anomalies per cell.
//
// With -sweep the tool runs the full -algos x -scenarios x -windows x
// -gaps x -ns grid (windows apply to closed loop only) and merges all
// runs into one CSV (-format csv, one row per run), JSON array, or text
// table. "-algos all" expands to every registered algorithm and
// "-scenarios all" to every scenario; -ns makes the network size a grid
// dimension. Cells run concurrently on a -parallel worker pool (each owns
// an independent network; output order stays deterministic), and a cell
// that fails is reported as a skipped row with its reason instead of
// aborting the sweep.
//
// With -study scaling the tool packages the knee-vs-n experiment of
// docs/EXPERIMENTS.md §4: one open-loop ramprate cell per (algorithm, n)
// over -ns at the base merge window (-window), a merge-window sub-sweep
// (-windows) at the largest n for the request-merging algorithms, a
// log-log fit of knee_rate against n, and a per-algorithm verdict —
// bottleneck-bound, merge-bound, or scales-with-n — rendered as text,
// CSV (one row per measured point), or JSON. Unset knobs default to
// saturating values (-service 1, -rate-to 8, -ops 4000, -knee-buckets
// 48).
//
// With -study regression the tool measures each algorithm's multi-metric
// performance fingerprint — knee rate and reason, service p50/p99 at a
// fixed sub-knee rate, messages/op, bottleneck load share, drop rate and
// queue-reason knee under a tight admission queue, knees under the
// halfslow and straggler service profiles, and the scaling class — and
// renders it, or with -baseline record|check <path> serializes it to /
// gates it against a committed schema-versioned baseline with per-metric
// tolerance bands (docs/EXPERIMENTS.md §6). -baseline diff <a> <b>
// compares two recorded baseline files under the same bands without
// re-measuring. -artifacts dir additionally writes the JSON/CSV artifact
// files CI uploads.
//
// With -backend rt the same protocol state machines run on the
// goroutine-per-processor runtime instead of the simulator: one goroutine
// per processor, channel messaging, one simulated tick of service cost
// emulated as 1 µs of real work, and the report in wall-clock nanoseconds
// and ops/sec. -study simvsreal runs the same open-loop ramp cells on
// both backends and reports, per (algorithm, n), whether the simulator's
// saturation knee predicts the measured hardware knee
// (docs/EXPERIMENTS.md §8).
//
// With -keys > 1 (or -shards, -shard-algo, -migrate) the run routes
// through the sharded service layer (internal/countersvc): requests
// additionally draw a key from -key-dist, keys hash onto -shards home
// shards — each an independent counter instance built from -shard-algo —
// and -migrate adds a dedicated hot shard of the given algorithm that a
// detected hot key drains to and cuts over to mid-run. The report gains
// per-key stats, migration events, and a per-shard keyed verification
// that partitions each key's history by routing epoch. -study skew
// packages the headline experiment: a closed-loop zipf-exponent ladder
// comparing static shard assignments (all-central, all-counting-network)
// against adaptive hot-key migration, with a machine-checkable verdict
// line per skew level (docs/EXPERIMENTS.md §11).
//
// -service-dist selects a heterogeneous per-processor service-cost
// profile (flat, halfslow, straggler) on top of -service; it applies on
// both backends.
//
// Exit status: non-zero when -verify finds violations, when any
// sweep/study cell is skipped, or when -baseline check finds a metric out
// of band — gates script against the exit code, not output greps.
//
// The special scenario "adversarial" first executes the paper's
// lower-bound adversary against the chosen algorithm (sequentially, on a
// separate traced instance) and then replays the adversary's worst-case
// initiator order through the concurrent engine — the paper's hardest
// workload under load.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"distcount/internal/adversary"
	"distcount/internal/counter"
	"distcount/internal/engine"
	"distcount/internal/engine/report"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// options collects the parsed flag values shared by single runs, sweeps,
// and studies.
type options struct {
	mode        engine.Mode
	backend     string // execution backend: "sim" (discrete event) or "rt" (goroutine per processor)
	n           int
	ops         int
	seed        uint64
	inflight    int
	queueCap    int
	warmup      int
	meanGap     int64
	service     int64
	svcDist     string // per-processor service-cost distribution (flat/halfslow/straggler)
	sample      int
	window      int64   // combining/diffraction merge window
	epsilon     float64 // approximate-algorithm error bound override (0 = algorithm default)
	kneeBuckets int     // open-loop rate buckets (0 = engine default)
	verify      bool
	faults      string // fault-injection spec (see faults.go); "" = no faults
	keys        int    // keyed mode: independent counter keys (1 = classic single counter)
	keyDist     string // key-popularity distribution (uniform/zipf)
	keyZipfS    float64
	shards      int             // keyed mode: home shards keys hash onto
	shardAlgo   string          // home-shard algorithm(s): one name, or one per shard
	migrate     string          // hot-key migration spec (see keyed.go); "" = static assignment
	wcfg        workload.Config // scenario knobs (Zipf, hotspot, burst, rates)
}

// keyed reports whether the options select the sharded service layer
// (countersvc + engine.RunKeyed) instead of a single counter instance.
func (o options) keyed() bool {
	return o.keys > 1 || o.shards > 1 || o.shardAlgo != "" || o.migrate != ""
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "ctree", "algorithm: "+strings.Join(registry.Names(), ", "))
		scenario = fs.String("scenario", "uniform", "scenario: "+strings.Join(workload.Names(), ", ")+", adversarial")
		n        = fs.Int("n", 81, "number of processors (rounded up for structured algorithms)")
		ops      = fs.Int("ops", 2000, "number of operations")
		seed     = fs.Uint64("seed", 1, "scenario seed (runs are deterministic per seed)")
		mode     = fs.String("mode", "closed", "admission mode: closed (window throttles) or open (admit at arrival time)")
		backend  = fs.String("backend", "sim", "execution backend: sim (discrete-event simulator, ticks) or rt (goroutine-per-processor runtime on real cores, wall-clock ns and ops/sec)")
		inflight = fs.Int("inflight", 8, "closed-loop window: max operations concurrently in flight")
		queueCap = fs.Int("queue-cap", 4096, "open-loop admission queue bound; overflow is dropped")
		warmup   = fs.Int("warmup", -1, "completions excluded from measurement (default ops/10)")
		meanGap  = fs.Int64("mean-gap", 4, "mean interarrival time in simulated ticks")
		service  = fs.Int64("service", 0, "per-message processing cost in ticks (0 = instantaneous; saturation needs > 0)")
		svcDist  = fs.String("service-dist", "", "per-processor distribution of -service: flat (uniform, the default), halfslow (every second processor 4x slower), straggler (processor 1 8x slower)")
		sample   = fs.Int("sample", 0, "bottleneck series stride in completions (0 = auto)")
		window   = fs.Int64("window", registry.DefaultWindow, "combining/diffraction merge window in ticks (request-merging algorithms only)")
		epsilon  = fs.Float64("epsilon", 0, "claimed relative error bound for the ε-approximate algorithms (0 = the algorithm's default; exact algorithms ignore it)")
		kneeBk   = fs.Int("knee-buckets", 0, "open-loop rate buckets for the saturation analysis (0 = engine default; more buckets = finer knee resolution)")
		verify   = fs.Bool("verify", false, "check delivered values against the algorithm's claimed consistency level")
		faults   = fs.String("faults", "", `deterministic fault-injection spec, comma-separated clauses: "loss:0.01" / "dup:0.01" (i.i.d. per-send probabilities), "dropnth:2@every=5" / "dupnth:2@every=5" (deterministic per-sender rules; proc 0 = all), "crash:1@t=500" / "crash:1@t=500-900" (crash/recover windows), "churn:2@every=400/down=100" (rotating membership churn), "freeze" (crashed processors buffer instead of drop), "seed:7" (fault RNG seed). Applies on both backends`)
		format   = fs.String("format", "json", "output format: json, text, csv")
		keys     = fs.Int("keys", 1, "independent counter keys requests address (1 = the classic single counter; > 1 routes through the sharded service layer)")
		keyDist  = fs.String("key-dist", "zipf", "key-popularity distribution for -keys > 1: "+strings.Join(workload.KeyDists(), ", "))
		keyZipfS = fs.Float64("key-zipf-s", 1.2, "zipf exponent of -key-dist zipf (key 0 is the hottest)")
		shards   = fs.Int("shards", 1, "home shards keys hash onto; each shard is an independent counter instance")
		shardAlg = fs.String("shard-algo", "", "home-shard algorithm: one name for all shards, or a comma-separated list with one entry per shard (default: -algo)")
		migrate  = fs.String("migrate", "", `hot-key migration spec: a target algorithm, optionally tuned — "combining" or "combining@hot=0.2/every=256/max=1" (hot = completion share that marks a key hot, every = completions per detection window, max = keys that may migrate). Adds a dedicated hot shard of the target algorithm; hot keys drain and cut over to it mid-run`)
		zipfS    = fs.Float64("zipf-s", 1.2, "zipf exponent (scenario zipf)")
		hotFrac  = fs.Float64("hot-frac", 0.1, "hot-set fraction (scenario hotspot)")
		hotProb  = fs.Float64("hot-prob", 0.9, "hot-set probability (scenario hotspot)")
		burstLen = fs.Int("burst-len", 32, "operations per burst (scenario bursty)")
		rateFrom = fs.Float64("rate-from", 0, "starting offered rate in ops/tick (scenario ramprate; 0 = auto)")
		rateTo   = fs.Float64("rate-to", 0, "final offered rate in ops/tick (scenario ramprate; 0 = auto)")
		sweep    = fs.Bool("sweep", false, "run the -algos x -scenarios x -windows x -gaps x -ns grid into one merged report")
		study    = fs.String("study", "", `packaged experiment: "scaling" runs the knee-vs-n study (open-loop ramprate over -algos x -ns, plus a merge-window sub-sweep at the largest n) and reports per-algorithm scaling verdicts; "regression" measures each algorithm's multi-metric performance fingerprint (knee, sub-knee latency, messages/op, bottleneck share, queue-cap, heterogeneous-service and straggler knees, scaling class) for the baseline gate; "simvsreal" runs the same ramprate grid on the sim and rt backends and reports where the simulator's knee predicts the hardware knee; "skew" runs the keyed closed-loop grid over zipf exponents comparing static shard assignments against adaptive hot-key migration and reports where adaptive placement wins; "accuracy" runs the exact-vs-approximate ramp (exact references plus every ε-approximate algorithm over an ε ladder, verification on) and reports the measured price of exactness`)
		baseline = fs.String("baseline", "", `with -study regression: "record" writes the measured fingerprints to the baseline file given as the positional argument; "check" compares against it and exits non-zero when any metric leaves its tolerance band. Standalone: "diff" compares two recorded baseline files (base, current) without re-measuring — the PR-to-PR review form`)
		artdir   = fs.String("artifacts", "", "with -study regression: directory to additionally write the study's JSON/CSV artifacts into (created if missing)")
		algos    = fs.String("algos", "central,ctree", "comma-separated algorithms for -sweep/-study, or \"all\" for every registered algorithm (-study default: all)")
		scens    = fs.String("scenarios", "uniform,zipf", "comma-separated scenarios for -sweep, or \"all\" for every scenario")
		windows  = fs.String("windows", "", "comma-separated closed-loop admission windows for -sweep (default: -inflight); merge-window sub-sweep for -study (default: 1,4,64)")
		gaps     = fs.String("gaps", "", "comma-separated mean interarrival gaps for -sweep (default: -mean-gap)")
		ns       = fs.String("ns", "", "comma-separated processor counts: the n grid dimension for -sweep and -study (default: -n)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for -sweep/-study cells (each cell owns an independent network)")
		list     = fs.Bool("list", false, "list algorithms and scenarios, then exit")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (inspect with go tool pprof; recipe in docs/EXPERIMENTS.md §10)")
		memprof  = fs.String("memprofile", "", "write an allocation profile, taken after a final GC at exit, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "algorithms:", strings.Join(registry.Names(), ", "))
		fmt.Fprintln(out, "scenarios: ", strings.Join(workload.Names(), ", ")+", adversarial")
		return nil
	}
	if *n < 1 {
		return fmt.Errorf("need -n >= 1 (got %d)", *n)
	}
	if *ops < 1 {
		return fmt.Errorf("need -ops >= 1 (got %d)", *ops)
	}
	switch *format {
	case "json", "text", "csv":
	default:
		// Validated before the run so a typo does not waste the simulation.
		return fmt.Errorf("unknown format %q (have json, text, csv)", *format)
	}
	m, err := engine.ParseMode(*mode)
	if err != nil {
		return err
	}
	switch *backend {
	case "sim", "rt":
	default:
		return fmt.Errorf("unknown backend %q (have %s)", *backend, strings.Join(registry.Backends(), ", "))
	}
	if *service < 0 {
		return fmt.Errorf("need -service >= 0 (got %d)", *service)
	}
	if *keys < 1 {
		return fmt.Errorf("need -keys >= 1 (got %d)", *keys)
	}
	if *shards < 1 {
		return fmt.Errorf("need -shards >= 1 (got %d)", *shards)
	}
	// A measurement tool must not silently ignore an explicit selection:
	// the single-run, sweep, and study flag families are mutually exclusive.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *window < 0 {
		return fmt.Errorf("need -window >= 0 (got %d)", *window)
	}
	if *parallel < 1 {
		return fmt.Errorf("need -parallel >= 1 (got %d)", *parallel)
	}
	// The keyed (sharded service) flag family; sweeps and the pre-existing
	// studies drive single counters, so these compose only with single runs
	// and the skew study's pinned grid.
	keyedFlags := []string{"keys", "key-dist", "key-zipf-s", "shards", "shard-algo", "migrate"}
	switch {
	case *sweep && *study != "":
		return fmt.Errorf("-sweep and -study are mutually exclusive")
	case *sweep:
		for _, name := range []string{"algo", "scenario"} {
			if set[name] {
				return fmt.Errorf("-%s is ignored by -sweep; use -algos/-scenarios", name)
			}
		}
		for _, name := range keyedFlags {
			if set[name] {
				return fmt.Errorf("-%s does not compose with -sweep (keyed runs are single runs, or -study skew)", name)
			}
		}
		if m == engine.Open && set["windows"] {
			return fmt.Errorf("-windows only applies to closed-loop sweeps (open loop has no admission window)")
		}
	case *study != "":
		switch *study {
		case "scaling", "regression", "simvsreal", "faults", "skew", "accuracy":
		default:
			return fmt.Errorf("unknown study %q (have scaling, regression, simvsreal, faults, skew, accuracy)", *study)
		}
		// Studies pin their own backends and fault plans: scaling and
		// regression are sim experiments (the committed baselines are sim
		// fingerprints), simvsreal runs both sides itself, and the faults
		// study injects its own fixed plan grid.
		banned := []string{"algo", "scenario", "scenarios", "gaps", "backend", "faults"}
		if *study == "simvsreal" {
			// The comparison is only meaningful under the uniform service
			// model both backends share; windows stay at the base value so
			// sim and rt cells are the identical protocol configuration.
			banned = append(banned, "windows", "service-dist", "queue-cap", "rate-from")
		}
		if *study == "regression" {
			// The regression study's grid is pinned so a committed baseline
			// and a later check are always the same experiment; the knobs
			// that *are* free (seed, ops, window, service, rate ceiling,
			// buckets) are recorded in the baseline and diffed as config.
			// -mean-gap and -warmup are banned too: the first feeds the
			// ramp's derived starting rate and the second the measure
			// window, and neither is recorded.
			banned = append(banned, "ns", "windows", "service-dist", "queue-cap", "rate-from",
				"mean-gap", "warmup", "verify")
		}
		if *study == "faults" {
			// The fault grid is the experiment: plans, n, and verification
			// are pinned so every run of the study is the same measurement.
			banned = append(banned, "ns", "windows", "service-dist", "queue-cap", "rate-from", "verify")
		}
		if *study == "accuracy" {
			// The accuracy grid — the exact reference set, the ε ladder,
			// network size, service cost, verification — is the experiment;
			// ops, seed, the rate ceiling, buckets and parallelism stay
			// free, as in the regression study.
			banned = append(banned, "algos", "ns", "windows", "service-dist", "queue-cap", "rate-from",
				"mean-gap", "warmup", "verify", "n", "inflight", "service", "epsilon")
		}
		if *study == "skew" {
			// The skew study's grid — network size, key space, shard count,
			// admission window, service cost, arrival gap, the assignment
			// policies themselves — is the experiment; only ops, seed, the
			// merge window and parallelism stay free.
			banned = append(banned, "algos", "ns", "windows", "service-dist", "queue-cap", "rate-from",
				"mean-gap", "warmup", "verify", "n", "inflight", "service")
			banned = append(banned, keyedFlags...)
		}
		for _, name := range banned {
			if set[name] {
				return fmt.Errorf("-%s is ignored by -study %s (the study pins its own grid)", name, *study)
			}
		}
		if *study == "skew" {
			// Skew is the one closed-loop study: the question is how a fixed
			// admission window's throughput degrades with key skew.
			if set["mode"] && m != engine.Closed {
				return fmt.Errorf("-study skew is a closed-loop experiment; drop -mode %s", m)
			}
			m = engine.Closed
		} else {
			if set["mode"] && m != engine.Open {
				return fmt.Errorf("-study %s is an open-loop experiment; drop -mode %s", *study, m)
			}
			m = engine.Open
		}
		for _, name := range keyedFlags {
			if *study != "skew" && set[name] {
				return fmt.Errorf("-%s does not compose with -study %s (keyed runs are single runs, or -study skew)", name, *study)
			}
		}
	default:
		for _, name := range []string{"algos", "scenarios", "windows", "gaps", "ns", "parallel"} {
			if set[name] {
				return fmt.Errorf("-%s only applies with -sweep or -study", name)
			}
		}
	}
	switch *baseline {
	case "":
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q (only -baseline record|check|diff takes positional file paths)", fs.Arg(0))
		}
	case "record", "check":
		if *study != "regression" {
			return fmt.Errorf("-baseline %s needs -study regression", *baseline)
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("-baseline %s needs exactly one baseline file path argument, as the last argument (got %d: %v; flags after the path are not parsed)",
				*baseline, fs.NArg(), fs.Args())
		}
	case "diff":
		// Diff compares two already-recorded files — no measurement, so no
		// study; loadgen -study regression -baseline record produced both.
		if *study != "" || *sweep {
			return fmt.Errorf("-baseline diff compares two recorded baseline files without re-measuring; drop -study/-sweep")
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("-baseline diff needs exactly two baseline file paths (base then current), as the last arguments (got %d: %v)",
				fs.NArg(), fs.Args())
		}
	default:
		return fmt.Errorf("unknown -baseline mode %q (have record, check, diff)", *baseline)
	}
	if *artdir != "" && *study != "regression" {
		return fmt.Errorf("-artifacts only applies with -study regression")
	}
	if *baseline == "diff" {
		return runBaselineDiff(out, *format, fs.Arg(0), fs.Arg(1))
	}
	if _, err := serviceSimOpt(*service, *svcDist); err != nil {
		// Validated before the run so a typo'd distribution does not waste
		// the simulation; 0-service "flat" passes (it is the default shape).
		return err
	}
	if _, err := parseFaultSpec(*faults); err != nil {
		// Same early validation for the fault spec.
		return err
	}
	if _, err := parseMigrateSpec(*migrate); err != nil {
		// And for the migration spec.
		return err
	}
	if *keys > 1 || *shards > 1 || *shardAlg != "" || *migrate != "" {
		// The service layer shares one fate across its shards; fault plans
		// and the adversarial replay both assume a single counter instance.
		if *faults != "" {
			return fmt.Errorf("-faults does not compose with -keys/-shards (the service layer does not inject faults)")
		}
		if *scenario == "adversarial" {
			return fmt.Errorf("scenario adversarial drives a single counter; it does not compose with -keys/-shards")
		}
	}
	stopProfiles, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProfiles()

	opt := options{
		mode:        m,
		backend:     *backend,
		n:           *n,
		ops:         *ops,
		seed:        *seed,
		inflight:    *inflight,
		queueCap:    *queueCap,
		warmup:      *warmup,
		meanGap:     *meanGap,
		service:     *service,
		svcDist:     *svcDist,
		sample:      *sample,
		window:      *window,
		epsilon:     *epsilon,
		kneeBuckets: *kneeBk,
		verify:      *verify,
		faults:      *faults,
		keys:        *keys,
		keyDist:     *keyDist,
		keyZipfS:    *keyZipfS,
		shards:      *shards,
		shardAlgo:   *shardAlg,
		migrate:     *migrate,
		wcfg: workload.Config{
			Ops:      *ops,
			Seed:     *seed,
			ZipfS:    *zipfS,
			HotFrac:  *hotFrac,
			HotProb:  *hotProb,
			BurstLen: *burstLen,
			RateFrom: *rateFrom,
			RateTo:   *rateTo,
		},
	}

	nsList := []int{opt.n}
	if *ns != "" {
		var err error
		if nsList, err = parseInts(*ns, "-ns"); err != nil {
			return err
		}
	}

	if *sweep {
		return runSweep(out, opt, *format, *algos, *scens, *windows, *gaps, nsList, *parallel)
	}
	if *study != "" {
		scfg := studyConfig{
			algos:          *algos,
			algosSet:       set["algos"],
			opsSet:         set["ops"],
			ns:             nsList,
			nsSet:          set["ns"],
			windows:        *windows,
			serviceSet:     set["service"],
			rateToSet:      set["rate-to"],
			kneeBucketsSet: set["knee-buckets"],
			parallel:       *parallel,
		}
		switch *study {
		case "regression":
			return runRegressionStudy(out, opt, *format, scfg, *baseline, fs.Arg(0), *artdir)
		case "simvsreal":
			return runSimVsRealStudy(out, opt, *format, scfg)
		case "faults":
			return runFaultStudy(out, opt, *format, scfg)
		case "skew":
			return runSkewStudy(out, opt, *format, scfg)
		case "accuracy":
			return runAccuracyStudy(out, opt, *format, scfg)
		}
		return runScalingStudy(out, opt, *format, scfg)
	}

	res, err := runOne(opt, *algo, *scenario)
	if err != nil {
		return err
	}
	switch *format {
	case "csv":
		err = report.WriteCSV(out, res)
	case "text":
		_, err = io.WriteString(out, report.Render(res))
	default: // "json", validated above
		err = report.WriteJSON(out, res)
	}
	if err != nil {
		return err
	}
	if v := res.Verification; v != nil && v.Violations > 0 {
		// The report already rendered; the non-zero exit is the contract
		// CI gates rely on instead of output grepping.
		return fmt.Errorf("verification failed: %d violations against %s consistency (first: %s)",
			v.Violations, v.Property, v.First)
	}
	return nil
}

// startProfiles starts CPU profiling and/or arranges an exit-time
// allocation profile, returning the teardown to defer. Teardown failures
// are reported on stderr rather than through the exit code: a profile is a
// measurement aid, and the run it measured still succeeded.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	stop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
			}
		}
	}
	return stop, nil
}

// runOne builds a fresh counter and scenario and executes a single engine
// run on the selected backend: the discrete-event simulator or the
// goroutine-per-processor rt runtime (engine.Run drives either). Keyed
// options route through the sharded service layer instead (keyed.go).
func runOne(opt options, algo, scenario string) (*engine.Result, error) {
	if opt.keyed() {
		return runOneKeyed(opt, algo, scenario)
	}
	var simOpts []sim.Option
	svcOpt, err := serviceSimOpt(opt.service, opt.svcDist)
	if err != nil {
		return nil, err
	}
	if svcOpt != nil {
		simOpts = append(simOpts, svcOpt)
	}
	rcfg := registry.Concurrent(simOpts...)
	rcfg.Window = opt.window
	rcfg.Epsilon = opt.epsilon
	rcfg.Backend = opt.backend
	if rcfg.Faults, err = parseFaultSpec(opt.faults); err != nil {
		return nil, err
	}
	if opt.backend == "rt" {
		// The rt backend emulates the same per-processor service costs by
		// busy-spinning the receiving goroutine (ticks scale to wall time).
		rcfg.RTService, err = serviceCost(opt.service, opt.svcDist)
		if err != nil {
			return nil, err
		}
	}
	c, err := registry.NewWith(algo, opt.n, rcfg)
	if err != nil {
		return nil, err
	}

	// Scenarios are sized to the actual network (structured algorithms
	// round n up).
	wcfg := opt.wcfg
	wcfg.N = c.N()
	wcfg.MeanGap = opt.meanGap
	var gen workload.Generator
	if scenario == "adversarial" {
		gen, err = adversarialReplay(algo, c.N(), opt.ops, opt.seed, opt.meanGap)
	} else {
		gen, err = workload.New(scenario, wcfg)
	}
	if err != nil {
		return nil, err
	}

	ecfg := engine.Config{
		Mode: opt.mode,
		// The expected completion count preallocates the engine's per-op
		// metric slices in one shot.
		Ops:         genOps(scenario, opt.ops, c.N()),
		InFlight:    opt.inflight,
		QueueCap:    opt.queueCap,
		Warmup:      opt.warmup,
		SampleEvery: opt.sample,
		KneeBuckets: opt.kneeBuckets,
		Verify:      opt.verify,
	}
	if ecfg.Warmup < 0 {
		ecfg.Warmup = genOps(scenario, opt.ops, c.N()) / 10
	}
	return engine.Run(c, gen, ecfg)
}

// serviceCost resolves the -service/-service-dist pair into a
// per-processor cost function in ticks — the shape both backends consume
// (the simulator as a sim.Option, the rt runtime as registry's RTService).
// Nil (with no error) when service is 0 and the distribution is the
// default flat shape.
func serviceCost(service int64, dist string) (func(p sim.ProcID) int64, error) {
	if service <= 0 {
		if dist != "" && dist != "flat" {
			return nil, fmt.Errorf("-service-dist %s needs -service > 0", dist)
		}
		return nil, nil
	}
	switch dist {
	case "", "flat":
		return func(sim.ProcID) int64 { return service }, nil
	case "halfslow":
		// Mixed hardware: every second processor runs at a quarter of the
		// rate. Spreading the slow half across the id space hits leaf and
		// internal roles alike in the structured algorithms.
		return func(p sim.ProcID) int64 {
			if p%2 == 0 {
				return 4 * service
			}
			return service
		}, nil
	case "straggler":
		// One badly provisioned machine. Processor 1 roots several of the
		// structured schemes, so this is the adversarial placement.
		return func(p sim.ProcID) int64 {
			if p == 1 {
				return 8 * service
			}
			return service
		}, nil
	}
	return nil, fmt.Errorf("unknown -service-dist %q (have flat, halfslow, straggler)", dist)
}

// serviceSimOpt is serviceCost in the simulator's option form. The flat
// shape stays on the uniform-cost fast path.
func serviceSimOpt(service int64, dist string) (sim.Option, error) {
	fn, err := serviceCost(service, dist)
	if err != nil || fn == nil {
		return nil, err
	}
	if dist == "" || dist == "flat" {
		return sim.WithServiceTime(service), nil
	}
	return sim.WithServiceProfile(fn), nil
}

// distLabel is the ServiceDist value recorded on report rows: the named
// distribution when a service cost is active, "" when the network has no
// service model at all.
func distLabel(service int64, dist string) string {
	if service <= 0 {
		return ""
	}
	if dist == "" {
		return "flat"
	}
	return dist
}

// sweepCell is one grid coordinate of a sweep or study; idx fixes its
// output slot so parallel execution keeps row order deterministic. inflight
// is the closed-loop admission window; mwin the merge window the cell's
// counter is built with. The remaining fields are per-cell overrides used
// by the regression, simvsreal and faults studies (zero values inherit the
// run's options): dist selects a -service-dist profile, qcap an
// admission-queue bound, rateFrom/rateTo pin the ramprate sweep bounds,
// backend overrides the execution backend, faults installs a fault plan
// (same grammar as -faults), and verify forces value verification on.
type sweepCell struct {
	idx        int
	algo, scen string
	n          int
	inflight   int
	gap        int64
	mwin       int64
	epsilon    float64
	dist       string
	qcap       int
	rateFrom   float64
	rateTo     float64
	backend    string
	faults     string
	verify     bool
	// Keyed-cell overrides (the skew study): keys > 0 routes the cell
	// through the sharded service layer with these knobs.
	keys      int
	keyDist   string
	keyZipfS  float64
	shards    int
	shardAlgo string
	migrate   string
}

// runSweep executes the grid — cells spread over a worker pool, each cell
// owning an independent counter and network — and merges every run into one
// report in grid order. A cell that fails is reported as a skipped row with
// its reason, never silently dropped; the sweep itself errors only when no
// cell at all could run.
func runSweep(out io.Writer, opt options, format, algos, scens, windows, gaps string, nsList []int, parallel int) error {
	algoList := expandAlgos(algos)
	scenList := splitList(scens)
	if len(scenList) == 1 && scenList[0] == "all" {
		scenList = workload.Names()
	}
	if len(algoList) == 0 || len(scenList) == 0 {
		return fmt.Errorf("-sweep needs non-empty -algos and -scenarios")
	}
	windowList := []int{opt.inflight}
	if windows != "" {
		var err error
		if windowList, err = parseInts(windows, "-windows"); err != nil {
			return err
		}
	}
	if opt.mode == engine.Open {
		// Open loop has no admission window; one pass per (algo, scenario,
		// gap, n) cell. An explicit -windows list was already rejected.
		windowList = windowList[:1]
	}
	gapList := []int64{opt.meanGap}
	if gaps != "" {
		ints, err := parseInts(gaps, "-gaps")
		if err != nil {
			return err
		}
		gapList = gapList[:0]
		for _, g := range ints {
			gapList = append(gapList, int64(g))
		}
	}

	var cells []sweepCell
	for _, algo := range algoList {
		for _, scen := range scenList {
			for _, window := range windowList {
				for _, gap := range gapList {
					for _, n := range nsList {
						cells = append(cells, sweepCell{idx: len(cells), algo: algo, scen: scen,
							n: n, inflight: window, gap: gap, mwin: opt.window})
					}
				}
			}
		}
	}

	rows, err := runCells(opt, cells, parallel)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	switch format {
	case "csv":
		err = report.WriteSweepCSV(out, rows)
	case "text":
		_, err = io.WriteString(out, report.RenderSweep(rows))
	default:
		err = report.WriteSweepJSON(out, rows)
	}
	if err != nil {
		return err
	}
	return gateRows(rows)
}

// gateRows is the exit-status contract of sweeps and studies: after the
// report has rendered, any skipped cell or verification violation still
// fails the process, so CI can gate on the exit code instead of grepping
// the output.
func gateRows(rows []report.SweepRow) error {
	skipped, violations := 0, 0
	var first string
	for _, r := range rows {
		if r.Skipped != "" {
			skipped++
			if first == "" {
				first = fmt.Sprintf("%s/%s n=%d: %s", r.Algorithm, r.Scenario, r.N, r.Skipped)
			}
		}
		if v := r.Verification; v != nil && v.Violations > 0 {
			violations += v.Violations
			if first == "" {
				first = fmt.Sprintf("%s/%s n=%d: %d %s violations", r.Algorithm, r.Scenario, r.N, v.Violations, v.Property)
			}
		}
	}
	switch {
	case skipped > 0 && violations > 0:
		return fmt.Errorf("%d of %d cells skipped and %d verification violations (first: %s)",
			skipped, len(rows), violations, first)
	case skipped > 0:
		return fmt.Errorf("%d of %d cells skipped (first: %s)", skipped, len(rows), first)
	case violations > 0:
		return fmt.Errorf("verification failed: %d violations (first: %s)", violations, first)
	}
	return nil
}

// runCells spreads the cells over a worker pool — each cell owns an
// independent counter and network — and returns one row per cell in cell
// order, so parallel execution is indistinguishable from serial. A grid
// where no cell at all could run is an error (single failed cells are
// reported as skipped rows instead).
func runCells(opt options, cells []sweepCell, parallel int) ([]report.SweepRow, error) {
	rows := make([]report.SweepRow, len(cells))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, cl := range cells {
		wg.Add(1)
		go func(cl sweepCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[cl.idx] = runCell(opt, cl)
		}(cl)
	}
	wg.Wait()

	skipped := 0
	for _, r := range rows {
		if r.Skipped != "" {
			skipped++
		}
	}
	if len(rows) > 0 && skipped == len(rows) {
		return nil, fmt.Errorf("all %d cells failed; first: %s/%s: %s",
			len(rows), rows[0].Algorithm, rows[0].Scenario, rows[0].Skipped)
	}
	return rows, nil
}

// runCell executes one sweep cell, converting any error — including a
// protocol panic, so one broken cell cannot take down the whole sweep —
// into a skipped row that keeps the cell's coordinates.
func runCell(opt options, cl sweepCell) (row report.SweepRow) {
	cell := opt
	cell.n = cl.n
	cell.inflight = cl.inflight
	cell.meanGap = cl.gap
	cell.window = cl.mwin
	if cl.epsilon > 0 {
		cell.epsilon = cl.epsilon
	}
	if cl.dist != "" {
		cell.svcDist = cl.dist
	}
	if cl.qcap > 0 {
		cell.queueCap = cl.qcap
	}
	if cl.rateFrom > 0 {
		cell.wcfg.RateFrom = cl.rateFrom
	}
	if cl.rateTo > 0 {
		cell.wcfg.RateTo = cl.rateTo
	}
	if cl.backend != "" {
		cell.backend = cl.backend
	}
	if cl.faults != "" {
		cell.faults = cl.faults
	}
	if cl.verify {
		cell.verify = true
	}
	if cl.keys > 0 {
		cell.keys = cl.keys
		cell.keyDist = cl.keyDist
		cell.keyZipfS = cl.keyZipfS
		cell.shards = cl.shards
		cell.shardAlgo = cl.shardAlgo
		cell.migrate = cl.migrate
	}
	dist := distLabel(cell.service, cell.svcDist)
	back := ""
	if cell.backend == "rt" {
		back = "rt"
	}
	// keyedRow stamps the keyed-cell coordinates on a row so the skew
	// analysis can label the assignment policy even for skipped cells.
	keyedRow := func(row *report.SweepRow) {
		if cl.keys == 0 {
			return
		}
		row.KeyDist = cell.keyDist
		row.KeyZipfS = cell.keyZipfS
		row.ShardAlgo = cell.shardAlgo
		if cell.migrate != "" {
			row.Migrate = migrateTarget(cell.migrate)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			row = report.SkippedRow(cl.algo, cl.scen, opt.mode, cl.n, cl.inflight, cl.gap, opt.service, cl.mwin,
				fmt.Errorf("panic: %v", r))
			row.ServiceDist = dist
			row.Backend = back
			row.FaultSpec = cell.faults
			keyedRow(&row)
		}
	}()
	res, err := runOne(cell, cl.algo, cl.scen)
	if err != nil {
		row = report.SkippedRow(cl.algo, cl.scen, opt.mode, cl.n, cl.inflight, cl.gap, opt.service, cl.mwin, err)
		row.ServiceDist = dist
		row.Backend = back
		row.FaultSpec = cell.faults
		keyedRow(&row)
		return row
	}
	row = report.SweepRow{MeanGap: cl.gap, MergeWindow: cl.mwin, ServiceTime: cell.service, ServiceDist: dist, Backend: back, FaultSpec: cell.faults, Result: res}
	keyedRow(&row)
	return row
}

// expandAlgos splits an -algos flag value, expanding the "all" sentinel to
// every registered algorithm — the one place sweep and study agree on what
// "all" means.
func expandAlgos(algos string) []string {
	list := splitList(algos)
	if len(list) == 1 && list[0] == "all" {
		return registry.Names()
	}
	return list
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s, flagName string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("%s: %q is not a positive integer", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list", flagName)
	}
	return out, nil
}

// genOps returns the effective stream length: the adversarial replay is
// bounded by the canonical workload (each processor once).
func genOps(scenario string, ops, n int) int {
	if scenario == "adversarial" && ops > n {
		return n
	}
	return ops
}

// adversarialReplay runs the Lower Bound Theorem's constructive workload
// sequentially against a traced instance of the algorithm and converts the
// chosen initiator order into a replay scenario, truncated to at most ops
// operations (the adversary's order is one per processor, so the stream is
// also capped at n). The sampled adversary (subset of candidates per step)
// keeps this affordable at CLI sizes.
func adversarialReplay(algo string, n, ops int, seed uint64, gap int64) (workload.Generator, error) {
	probe, err := registry.New(algo, n, sim.WithTracing())
	if err != nil {
		return nil, err
	}
	cl, ok := probe.(counter.Cloneable)
	if !ok {
		return nil, fmt.Errorf("scenario adversarial needs a cloneable algorithm, %q is not", algo)
	}
	sampleSize := 8
	res, err := adversary.Run(cl, adversary.SampleSize(sampleSize), adversary.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("adversary against %s: %w", algo, err)
	}
	order := make([]sim.ProcID, len(res.Steps))
	for i, st := range res.Steps {
		order[i] = st.Chosen
	}
	if ops < len(order) {
		order = order[:ops]
	}
	return workload.Replay("adversarial", order, gap), nil
}
