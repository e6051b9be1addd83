package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wavepipe"
	"wavepipe/internal/reduce"
)

// Reference tolerances: ten times tighter than the facade defaults (RelTol
// 1e-3, AbsTol 1e-6). The reference is a serial run of the unreduced deck,
// computed outside every timed phase.
const (
	refRelTol = 1e-4
	refAbsTol = 1e-8
)

// setupSamples is how many cold set-ups a run times, each in a fresh
// process, so the process-wide ordering cache starts empty every time and
// the service starts the way a freshly launched daemon does.
const setupSamples = 7

// mode is how a batch job drives the facade.
type mode int

const (
	modeSerial   mode = iota // RunTransientCtx with facade defaults
	modeBackward             // WavePipe backward pipelining, two threads
	modeWindows              // Parareal windows, W = 2
	modeEnsemble             // RunEnsembleCircuitsCtx over the corner lanes
)

func (m mode) String() string {
	return [...]string{"serial", "backward-2T", "windows-2", "ensemble"}[m]
}

// batchSpec describes one batch workload.
type batchSpec struct {
	topologies []topology
	reduce     bool
	modes      []mode
	// lanes is the number of corner variants per deck (1 without an
	// ensemble); lane 0 is the base deck.
	lanes int
	// threads is the pipeline worker count and the ensemble gang width;
	// coreBudget is TranOptions.CoreBudget for the parallel modes.
	threads, coreBudget int
	// nominalPass is how long one untraced pass takes on the host the
	// benchmark was sized on (2 vCPU Xeon, Go 1.24). The pass count is
	// derived from it and --seconds, and nothing else, so two commits
	// always run the same number of jobs and every percentile keeps its
	// rank.
	nominalPass float64
}

// batchSpecs builds each batch workload for a host with nproc CPUs.
var batchSpecs = map[string]func(nproc int) batchSpec{
	"grid-linear":     gridLinear,
	"logic-nonlinear": logicNonlinear,
	"parallel-2core":  parallel2Core,
}

func gridLinear(int) batchSpec {
	return batchSpec{
		topologies: []topology{suiteTopology("grid24"), suiteTopology("grid32"),
			suiteTopology("rlctree8"), suiteTopology("ladder400")},
		reduce: true, modes: []mode{modeSerial}, lanes: 1, nominalPass: 3.2,
	}
}

func logicNonlinear(int) batchSpec {
	return batchSpec{
		topologies: []topology{suiteTopology("inv50"), suiteTopology("ekv30"),
			suiteTopology("nand5"), suiteTopology("ecl8"), suiteTopology("ring9")},
		modes: []mode{modeSerial}, lanes: 1, nominalPass: 0.48,
	}
}

func parallel2Core(nproc int) batchSpec {
	return batchSpec{
		topologies: []topology{suiteTopology("grid16"), suiteTopology("inv50")},
		modes:      []mode{modeBackward, modeWindows, modeEnsemble},
		lanes:      4, threads: 2, coreBudget: nproc, nominalPass: 1.6,
	}
}

// passes is the number of timed passes a run makes.
func (s batchSpec) passes(seconds int) int {
	p := int(math.Round(float64(seconds) / s.nominalPass))
	if p < 3 {
		p = 3
	}
	return p
}

// generateDecks renders every lane of every topology for the seed.
func (s batchSpec) generateDecks(seed int64) ([][]Deck, error) {
	out := make([][]Deck, len(s.topologies))
	for i, t := range s.topologies {
		for v := 0; v < s.lanes; v++ {
			d, err := generate(t, seed, v)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], d)
		}
	}
	return out, nil
}

// setupResult is one cold set-up: the time each layer took to turn the
// deck text into runnable systems, and the size of what it produced.
type setupResult struct {
	Total  float64 `json:"total_s"`
	Parse  float64 `json:"parse_s"`
	Build  float64 `json:"build_s"`
	Reduce float64 `json:"reduce_s"`
	Order  float64 `json:"order_s"`
	// Unknowns and NNZ describe the systems the jobs simulate (after
	// reduction); Nodes and ReducedNodes the node counts before and after.
	Unknowns     int `json:"unknowns"`
	NNZ          int `json:"nnz"`
	Nodes        int `json:"nodes"`
	ReducedNodes int `json:"reduced_nodes"`
}

// prepared is one topology ready to run.
type prepared struct {
	decks  []Deck
	parsed *wavepipe.Deck
	sys    *wavepipe.System    // base deck, reduced when the workload reduces
	lanes  []*wavepipe.Circuit // corner circuits for the ensemble (nil without)
	refs   []*wavepipe.Set     // tight-tolerance reference per lane
	serial []*wavepipe.Result  // facade-default serial run per lane
}

// setup turns the deck text into runnable systems, timing each layer.
func setup(spec batchSpec, decks [][]Deck) ([]*prepared, setupResult, error) {
	var r setupResult
	start := time.Now()
	out := make([]*prepared, len(decks))
	for i, lanes := range decks {
		p := &prepared{decks: lanes}
		t := time.Now()
		parsed, err := wavepipe.ParseDeck(lanes[0].Text)
		if err != nil {
			return nil, r, fmt.Errorf("parse %s: %w", lanes[0].Name, err)
		}
		if spec.lanes > 1 {
			for _, d := range lanes {
				ld, err := wavepipe.ParseDeck(d.Text)
				if err != nil {
					return nil, r, fmt.Errorf("parse %s: %w", d.Name, err)
				}
				p.lanes = append(p.lanes, ld.Circuit)
			}
		}
		r.Parse += time.Since(t).Seconds()
		p.parsed = parsed

		t = time.Now()
		sys, err := parsed.Build()
		if err != nil {
			return nil, r, fmt.Errorf("build %s: %w", lanes[0].Name, err)
		}
		r.Build += time.Since(t).Seconds()
		r.Nodes += sys.NumNodes

		if spec.reduce {
			t = time.Now()
			rc, ri, err := reduce.Reduce(sys.Circuit, reduce.Options{
				Tol: wavepipe.DefaultReduceTol, Keep: []string{lanes[0].Probe}})
			if err != nil {
				return nil, r, fmt.Errorf("reduce %s: %w", lanes[0].Name, err)
			}
			if ri != nil {
				rsys, err := rc.Build()
				if err != nil {
					return nil, r, fmt.Errorf("build reduced %s: %w", lanes[0].Name, err)
				}
				rsys.SetReduction(ri)
				sys = rsys
			}
			r.Reduce += time.Since(t).Seconds()
		}
		r.ReducedNodes += sys.NumNodes

		t = time.Now()
		sys.Prewarm()
		r.Order += time.Since(t).Seconds()
		r.Unknowns += sys.N
		r.NNZ += sys.PatternNNZ()
		p.sys = sys
		out[i] = p
	}
	r.Total = time.Since(start).Seconds()
	return out, r, nil
}

// runSetupChild is the body of a --setup-child process. For a batch
// workload it generates the decks (untimed), sets them up once and prints
// the timings as one JSON line.
func runSetupChild(cfg config, w io.Writer) error {
	if cfg.workload == serviceWorkload {
		return serviceSetupChild(cfg, w)
	}
	newSpec, ok := batchSpecs[cfg.workload]
	if !ok {
		return fmt.Errorf("workload %s has no batch set-up", cfg.workload)
	}
	spec := newSpec(cfg.host.NProc)
	decks, err := spec.generateDecks(cfg.seed)
	if err != nil {
		return err
	}
	_, r, err := setup(spec, decks)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(r)
}

// coldSetups times setupSamples set-ups, each in a fresh child process.
func coldSetups(cfg config) ([]setupResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupResult
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.Itoa(cfg.seconds))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		var r setupResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", strings.TrimSpace(string(b)), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// batchJob is one facade call of a pass.
type batchJob struct {
	topo int
	mode mode
}

func (b *batch) jobName(j batchJob) string {
	return b.prep[j.topo].decks[0].Name + "/" + j.mode.String()
}

// jobResult is the outcome of one facade call.
type jobResult struct {
	wall  float64 // seconds
	first float64 // seconds to the first accepted point; 0 when none streamed
	res   *wavepipe.Result
	ens   *wavepipe.EnsembleResult
	err   error
}

// stats returns the run's aggregate work counters.
func (r jobResult) stats() wavepipe.Stats {
	switch {
	case r.ens != nil:
		return r.ens.Stats
	case r.res != nil:
		return r.res.Stats
	}
	return wavepipe.Stats{}
}

// batch is a batch workload being run.
type batch struct {
	spec batchSpec
	prep []*prepared
	jobs []batchJob
}

// options returns the facade options of a job.
func (b *batch) options(j batchJob) (wavepipe.TranOptions, error) {
	p := b.prep[j.topo]
	opts := wavepipe.TranOptions{Record: []string{p.decks[0].Probe}}
	switch j.mode {
	case modeBackward:
		opts.Scheme = wavepipe.Backward
		opts.Threads = b.spec.threads
		opts.CoreBudget = b.spec.coreBudget
	case modeWindows:
		opts.Windows = 2
		opts.CoreBudget = b.spec.coreBudget
	case modeEnsemble:
		opts.Threads = b.spec.threads
	}
	return p.parsed.ApplyTo(opts)
}

// run makes one facade call; obs, when non-nil, is attached as the
// run's Observer.
func (b *batch) run(j batchJob, obs wavepipe.Observer) jobResult {
	p := b.prep[j.topo]
	opts, err := b.options(j)
	if err != nil {
		return jobResult{err: err}
	}
	opts.Observer = obs
	var first atomic.Int64
	start := time.Now()
	if j.mode != modeEnsemble {
		opts.OnAccept = func(float64, []float64) {
			if first.Load() == 0 {
				first.Store(int64(time.Since(start)))
			}
		}
	}
	var r jobResult
	if j.mode == modeEnsemble {
		r.ens, r.err = wavepipe.RunEnsembleCircuitsCtx(context.Background(), p.lanes, opts)
	} else {
		r.res, r.err = wavepipe.RunTransientCtx(context.Background(), p.sys, opts)
	}
	r.wall = time.Since(start).Seconds()
	r.first = time.Duration(first.Load()).Seconds()
	return r
}

// runSerial simulates one deck text from scratch with the serial engine
// and returns the result with the wall clock of the simulation alone.
func runSerial(d Deck, relTol, absTol float64) (*wavepipe.Result, float64, error) {
	parsed, err := wavepipe.ParseDeck(d.Text)
	if err != nil {
		return nil, 0, err
	}
	sys, err := parsed.Build()
	if err != nil {
		return nil, 0, err
	}
	opts, err := parsed.ApplyTo(wavepipe.TranOptions{Record: []string{d.Probe}, RelTol: relTol, AbsTol: absTol})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
	return res, time.Since(start).Seconds(), err
}

// prepareChecks computes, outside any timed phase, each lane's
// tight-tolerance reference and, for jobs that do not run the plain serial
// engine on the unreduced deck, the facade-default serial run they must
// stay equivalent to.
func (b *batch) prepareChecks() error {
	for _, p := range b.prep {
		needSerial := b.spec.modes[0] != modeSerial || p.sys.Reduction() != nil
		for _, d := range p.decks {
			ref, _, err := runSerial(d, refRelTol, refAbsTol)
			if err != nil {
				return fmt.Errorf("reference %s: %w", d.Name, err)
			}
			p.refs = append(p.refs, ref.W)
			if needSerial {
				s, _, err := runSerial(d, 0, 0)
				if err != nil {
					return fmt.Errorf("serial %s: %w", d.Name, err)
				}
				p.serial = append(p.serial, s)
			}
		}
	}
	return nil
}

// pass runs every job once; obs, when non-nil, makes a fresh observer per
// job (the traced run).
func (b *batch) pass(newObs func() wavepipe.Observer) ([]jobResult, float64) {
	out := make([]jobResult, len(b.jobs))
	start := time.Now()
	for i, j := range b.jobs {
		var obs wavepipe.Observer
		if newObs != nil {
			obs = newObs()
		}
		out[i] = b.run(j, obs)
	}
	return out, time.Since(start).Seconds()
}

// checker accumulates correctness and accuracy over passes.
type checker struct {
	b     *batch
	rep   *report
	first []jobResult // first untraced pass, the determinism baseline
	// acc is the worst deviation from the tight-tolerance reference seen
	// per deck name.
	acc accuracy
}

func sameWaveform(a, b *wavepipe.Set) bool {
	if a == nil || b == nil || len(a.Times) != len(b.Times) {
		return false
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || len(a.Data[i]) != len(b.Data[i]) {
			return false
		}
		for k := range a.Data[i] {
			if a.Data[i][k] != b.Data[i][k] {
				return false
			}
		}
	}
	return true
}

// reachesTStop reports whether a waveform covers the whole window.
func reachesTStop(w *wavepipe.Set, tstop float64) bool {
	return w != nil && w.Len() > 0 && w.Times[w.Len()-1] >= tstop*(1-1e-9)
}

// check validates one pass. Every job counts as attempted. A job fails
// when it errors or when it deviates from the facade-default serial run by
// more than the suite bar (the contract the pipelined, windowed and reduced
// engines keep). A broken bit-identity contract, or a waveform that stops
// short, makes the run incorrect. The deviation from the tight reference
// is accuracy, recorded per deck.
func (c *checker) check(results []jobResult) {
	b := c.b
	for i, r := range results {
		j := b.jobs[i]
		p := b.prep[j.topo]
		name := b.jobName(j)
		c.rep.attempted++
		if r.err != nil {
			c.rep.fail("%s: %v", name, r.err)
			continue
		}
		var waves []*wavepipe.Set
		if r.ens != nil {
			if len(r.ens.Lanes) != len(p.decks) {
				c.rep.problem("%s: %d lanes returned for %d", name, len(r.ens.Lanes), len(p.decks))
				continue
			}
			for k, lane := range r.ens.Lanes {
				if lane.Err != nil || lane.Res == nil {
					c.rep.fail("%s lane %d: %v", name, k, lane.Err)
					waves = nil
					break
				}
				waves = append(waves, lane.Res.W)
				if !sameWaveform(lane.Res.W, p.serial[k].W) {
					c.rep.problem("%s lane %d is not bit-identical to its serial run", name, k)
				}
			}
			if waves == nil {
				continue
			}
		} else {
			waves = []*wavepipe.Set{r.res.W}
		}
		worstEq := 0.0
		for k, w := range waves {
			d := p.decks[k]
			if !reachesTStop(w, d.TStop) {
				c.rep.problem("%s: waveform stops before TStop", name)
				continue
			}
			if err := c.acc.add(d, w, p.refs[k]); err != nil {
				c.rep.problem("%s: %v", name, err)
			}
			if p.serial != nil {
				eq, err := wavepipe.Compare(w, p.serial[k].W, d.Probe)
				if err != nil {
					c.rep.problem("%s: %v", name, err)
					continue
				}
				worstEq = math.Max(worstEq, eq.RelMax())
			}
		}
		if worstEq > accuracyBar {
			c.rep.fail("%s: deviates %.4f from the serial run (suite bar %.2f)", name, worstEq, accuracyBar)
		}
		if c.first != nil && j.mode == modeSerial && !sameWaveform(r.res.W, c.first[i].res.W) {
			c.rep.problem("%s: serial run is not bit-identical to the first pass", name)
		}
	}
	if c.first == nil {
		c.first = results
	}
}

// runBatch runs a batch workload end to end.
func runBatch(cfg config, spec batchSpec) (*report, error) {
	if err := cfg.host.need("pipeline and ensemble threads", spec.threads); err != nil {
		return nil, err
	}
	if err := cfg.host.need("CoreBudget", spec.coreBudget); err != nil {
		return nil, err
	}
	decks, err := spec.generateDecks(cfg.seed)
	if err != nil {
		return nil, err
	}
	setups, err := coldSetups(cfg)
	if err != nil {
		return nil, err
	}
	prep, _, err := setup(spec, decks)
	if err != nil {
		return nil, err
	}
	b := &batch{spec: spec, prep: prep}
	for i := range prep {
		for _, m := range spec.modes {
			b.jobs = append(b.jobs, batchJob{topo: i, mode: m})
		}
	}
	if err := b.prepareChecks(); err != nil {
		return nil, err
	}
	rep := newReport()
	c := &checker{b: b, rep: rep}
	passes := spec.passes(cfg.seconds)
	if cfg.trace {
		if err := b.traced(passes, c, setups); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(passes, c, setups)
	}
	c.acc.report(rep)
	for _, p := range b.prep {
		rep.note("deck %s unknowns %d", p.decks[0].Name, p.sys.N)
	}
	return rep, nil
}

// endToEnd makes the untraced timed passes and fills the end-to-end
// metrics. A pass runs the same decks every time, so job latencies form one
// cluster per job, far apart, and a percentile over all of them lands on a
// cluster boundary that one slow run moves. job_p50_s is therefore the
// median and job_tail_s the largest of the per-job medians across passes,
// and first_point_p50_s the median of the per-job median times to the first
// point.
func (b *batch) endToEnd(passes int, c *checker, setups []setupResult) {
	rep := c.rep
	var walls []float64
	perJob := make([][]float64, len(b.jobs))
	perJobFirst := make([][]float64, len(b.jobs))
	total := 0.0
	for i := 0; i < passes; i++ {
		results, wall := b.pass(nil)
		walls = append(walls, wall)
		total += wall
		for k, r := range results {
			perJob[k] = append(perJob[k], r.wall)
			if r.first > 0 {
				perJobFirst[k] = append(perJobFirst[k], r.first)
			}
		}
		c.check(results)
	}
	var jobMedians, firstMedians, setupTotals []float64
	slowest := 0
	for k := range b.jobs {
		jobMedians = append(jobMedians, median(perJob[k]))
		if jobMedians[k] > jobMedians[slowest] {
			slowest = k
		}
		if len(perJobFirst[k]) > 0 {
			firstMedians = append(firstMedians, median(perJobFirst[k]))
		}
	}
	for _, s := range setups {
		setupTotals = append(setupTotals, s.Total)
	}
	m := rep.metrics
	m["setup_s"] = median(setupTotals)
	m["wall_s"] = median(walls)
	m["peak_rss_mb"] = peakRSSMiB()
	m["jobs_per_s"] = float64(passes*len(b.jobs)) / total
	m["job_p50_s"] = median(jobMedians)
	m["job_tail_s"] = jobMedians[slowest]
	m["first_point_p50_s"] = median(firstMedians)
	rep.note("passes %d of %d jobs; wall_s is the median pass; job_tail_s is the median of the slowest job, %s; first_point_p50_s over %d streaming jobs",
		passes, len(b.jobs), b.jobName(b.jobs[slowest]), len(firstMedians))
	rep.note("pass walls %s", quartiles(walls))
	rep.note("setup_s is the median of %d cold set-ups in fresh processes", len(setups))
}

// accuracy tracks the worst deviation of any job from its deck's
// tight-tolerance reference, per deck name.
type accuracy struct {
	worst map[string]float64
	order []string
}

func (a *accuracy) add(d Deck, w, ref *wavepipe.Set) error {
	dev, err := wavepipe.Compare(w, ref, d.Probe)
	if err != nil {
		return fmt.Errorf("compare with reference: %w", err)
	}
	if a.worst == nil {
		a.worst = map[string]float64{}
	}
	if _, ok := a.worst[d.Name]; !ok {
		a.order = append(a.order, d.Name)
	}
	a.worst[d.Name] = math.Max(a.worst[d.Name], dev.RelMax())
	return nil
}

// report records max_rel_dev, the largest deviation of any deck, and
// prints every deck's value.
func (a *accuracy) report(rep *report) {
	worst := 0.0
	for _, name := range a.order {
		rep.note("accuracy %s deviates %.4f from its reference (RelTol %g, AbsTol %g)", name, a.worst[name], refRelTol, refAbsTol)
		worst = math.Max(worst, a.worst[name])
	}
	rep.metrics["max_rel_dev"] = worst
	rep.metrics["transient.max_rel_dev"] = worst
}
