// Command benchmark is wavepipe's measured benchmark. It generates seeded
// SPICE decks, drives them through the public facade (ParseDeck, Build,
// RunTransientCtx, RunEnsembleCircuitsCtx) or through the wavesimd HTTP
// handler, checks every waveform against the facade-default serial run and
// a tight-tolerance reference, and prints host wall-clock metrics. Run it
// from the repository root with
//
//	bash benchmark/run.sh --workload grid-linear --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the same work again with the facade's
// TraceRecorder attached and reports the per-layer split instead. The last
// line of standard output is one JSON object; README.md explains the
// workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the user-visible metrics a --trace 0 run reports, on every
// workload. For batch workloads a job is one facade call on one deck; for
// service-mixed it is one submission through the HTTP client.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"first_point_p50_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload. A
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"netlist.parse_s", "s"},
	{"circuit.build_s", "s"},
	{"circuit.unknowns", "count"},
	{"circuit.nnz", "count"},
	{"reduce.s", "s"},
	{"reduce.node_ratio", "1"},
	{"sparse.order_s", "s"},
	{"sparse.fill_ratio", "1"},
	{"sparse.factor_s", "s"},
	{"sparse.factor_us_per_call", "us"},
	{"sparse.trisolve_s", "s"},
	{"sparse.refactors", "count"},
	{"sparse.full_factors", "count"},
	{"sparse.bypassed", "count"},
	{"sparse.refactors_per_iter", "1"},
	{"circuit.load_s", "s"},
	{"circuit.loads", "count"},
	{"circuit.load_us_per_call", "us"},
	{"circuit.bypassed_evals", "count"},
	{"circuit.linear_stamp_hits", "count"},
	{"newton.iters", "count"},
	{"newton.iters_per_point", "1"},
	{"newton.failures", "count"},
	{"transient.points", "count"},
	{"transient.lte_rejects", "count"},
	{"transient.reject_frac", "1"},
	{"transient.lte_s", "s"},
	{"transient.solve_s", "s"},
	{"transient.other_s", "s"},
	{"transient.traced_wall_s", "s"},
	{"transient.max_rel_dev", "1"},
	{"wavepipe.stages", "count"},
	{"wavepipe.points_per_stage", "1"},
	{"wavepipe.discard_frac", "1"},
	{"wavepipe.worker_busy_s", "s"},
	{"wavepipe.idle_frac", "1"},
	{"wavepipe.serialized", "count"},
	{"wavepipe.speedup_vs_serial", "1"},
	{"windows.launched", "count"},
	{"windows.redos", "count"},
	{"windows.redo_frac", "1"},
	{"windows.parareal_iters", "count"},
	{"windows.speedup_vs_serial", "1"},
	{"ensemble.lanes", "count"},
	{"ensemble.retired", "count"},
	{"ensemble.speedup_vs_serial", "1"},
	{"sched.core_budget", "count"},
	{"sched.pipeline_workers", "count"},
	{"sched.intra_workers", "count"},
	{"sched.preemptions", "count"},
	{"sched.rejected", "count"},
	{"artifact.hit_ratio", "1"},
	{"artifact.hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.submit_hit_s", "s"},
	{"artifact.submit_miss_s", "s"},
	{"checkpoint.resumes", "count"},
	{"wire.result_fetch_s", "s"},
	{"trace.overhead_frac", "1"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
}

// accuracyBar is the suite's deviation bar: a job whose probe waveform
// deviates from the facade-default serial run of its deck by more than this
// share of the signal's range counts as failed.
const accuracyBar = 0.05

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	host     host
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	// problems lists violated program contracts; any entry makes the run
	// incorrect.
	problems []string
	// failures lists the failed operations by name.
	failures []string
	metrics  map[string]float64
	// notes carries the bases of ratios and other context for the
	// human-readable part of the output.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// serviceWorkload is the one workload that is not a batch of facade calls.
const serviceWorkload = "service-mixed"

// runWorkload runs the named workload; the README explains why each was
// chosen.
func runWorkload(cfg config) (*report, error) {
	if spec, ok := batchSpecs[cfg.workload]; ok {
		return runBatch(cfg, spec(cfg.host.NProc))
	}
	return runService(cfg)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the generated decks")
	seconds := fs.Int("seconds", 20, "measurement length the run is sized for, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	child := fs.Bool("setup-child", false, "internal: time one cold set-up of the workload and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := batchSpecs[*name]; !ok && *name != serviceWorkload {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, host: fingerprint()}
	if *child {
		if err := runSetupChild(cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: setup child: %v\n", err)
			return 1
		}
		return 0
	}
	if err := cfg.host.guard(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := []string{serviceWorkload}
	for n := range batchSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable report and then, as the last line,
// the JSON result object.
func printReport(w io.Writer, cfg config, rep *report) error {
	hostLine, err := json.Marshal(cfg.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host %s\n", hostLine)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "failed %s\n", f)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "incorrect %s\n", p)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	// Printed but not in the JSON metrics: failures are carried by
	// attempted and failed, and max_rel_dev swings with the seed far more
	// than a bound allows (see README.md).
	fmt.Fprintf(w, "metric %-28s %14.6g %s\n", "failed_frac", failedFrac, "1")
	fmt.Fprintf(w, "metric %-28s %14.6g %s\n", "max_rel_dev", rep.metrics["max_rel_dev"], "1")

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
