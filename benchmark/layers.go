package main

import (
	"fmt"
	"sort"

	"wavepipe"
	"wavepipe/internal/circuit"
)

// phaseSplit is the time a traced run spent in each solve phase, summed
// over the run's workers.
type phaseSplit struct {
	load, factor, tri, lte float64 // seconds in each PhaseDeviceLoad/Factor/TriSolve/LTE span
	solveSelf              float64 // solve and predict spans minus the phase spans inside them
	loads, factors         int
}

// busy is the time some worker spent inside a span.
func (s phaseSplit) busy() float64 {
	return s.load + s.factor + s.tri + s.lte + s.solveSelf
}

func (s *phaseSplit) add(o phaseSplit) {
	s.load += o.load
	s.factor += o.factor
	s.tri += o.tri
	s.lte += o.lte
	s.solveSelf += o.solveSelf
	s.loads += o.loads
	s.factors += o.factors
}

// splitTrace attributes a recorded event stream to the solve phases. Phase
// spans are emitted before the solve span that encloses them, by the same
// worker, so each solve takes the pending phases that ended inside it; the
// rest of the solve span is Newton's own work (residual, convergence test,
// prediction). Event Wall is the emission time, so a span covers
// [Wall-Dur, Wall].
func splitTrace(evs []wavepipe.TraceEvent) phaseSplit {
	var s phaseSplit
	pending := map[int16][]wavepipe.TraceEvent{}
	for _, ev := range evs {
		sec := float64(ev.Dur) / 1e9
		switch ev.Kind {
		case wavepipe.TraceKindPhase:
			switch ev.Phase {
			case wavepipe.TracePhaseDeviceLoad:
				s.load += sec
				s.loads++
			case wavepipe.TracePhaseFactor:
				s.factor += sec
				s.factors++
			case wavepipe.TracePhaseTriSolve:
				s.tri += sec
			case wavepipe.TracePhaseLTE:
				s.lte += sec
				continue
			}
			pending[ev.Worker] = append(pending[ev.Worker], ev)
		case wavepipe.TraceKindSolve, wavepipe.TraceKindPredict:
			start := ev.Wall - ev.Dur
			inner := int64(0)
			for _, p := range pending[ev.Worker] {
				if p.Wall-p.Dur >= start {
					inner += p.Dur
				}
			}
			pending[ev.Worker] = pending[ev.Worker][:0]
			if self := ev.Dur - inner; self > 0 {
				s.solveSelf += float64(self) / 1e9
			}
		}
	}
	return s
}

// tracedPass is one traced pass, reduced to what the layer table needs.
type tracedPass struct {
	wall   float64
	split  phaseSplit
	byMode map[mode]*modeAgg
}

// modeAgg sums the jobs of one mode within a pass.
type modeAgg struct {
	wall  float64
	split phaseSplit
	stats wavepipe.Stats
	lanes int
	// retired counts ensemble lanes that left the gang with an error.
	retired int
}

// sameWork reports whether two runs of one job did the same work.
func sameWork(a, b wavepipe.Stats) bool {
	return a.Points == b.Points && a.NRIters == b.NRIters &&
		a.Refactorizations == b.Refactorizations &&
		a.FullFactorizations == b.FullFactorizations &&
		a.BypassedFactorizations == b.BypassedFactorizations
}

// traced splits the run's passes into untraced passes and as many passes
// with a TraceRecorder attached to every job, so a traced run takes about
// as long as an untraced one. It checks that both did the same work and
// fills the per-layer metrics from the traced pass with the median wall
// clock.
func (b *batch) traced(passes int, c *checker, setups []setupResult) error {
	rep := c.rep
	m := rep.metrics
	passes = max(2, passes/2)

	// Untraced passes: the base for the tracing overhead, the speed-ups and
	// the Go runtime counters. On the parallel workload each pass is
	// followed by facade-default serial runs of every lane, the speed-up
	// bases, so both sides see the same host load.
	jobWalls := make([][]float64, len(b.jobs))
	var untracedWalls []float64
	serialWalls := map[[2]int][]float64{} // (topology, lane) -> serial run walls
	var gc gcSample
	for i := 0; i < passes; i++ {
		g := readGC()
		results, wall := b.pass(nil)
		gc = gc.plus(readGC().since(g))
		untracedWalls = append(untracedWalls, wall)
		for k, r := range results {
			jobWalls[k] = append(jobWalls[k], r.wall)
		}
		c.check(results)
		if b.spec.modes[0] == modeSerial {
			continue
		}
		for t, p := range b.prep {
			for l, d := range p.decks {
				_, wall, err := runSerial(d, 0, 0)
				if err != nil {
					return fmt.Errorf("serial base %s: %w", d.Name, err)
				}
				serialWalls[[2]int{t, l}] = append(serialWalls[[2]int{t, l}], wall)
			}
		}
	}
	gc.perPass(passes, m)

	var tps []tracedPass
	var tracedWalls []float64
	for i := 0; i < passes; i++ {
		var recs []*wavepipe.TraceRecorder
		results, wall := b.pass(func() wavepipe.Observer {
			rec := wavepipe.NewTraceRecorder(0)
			recs = append(recs, rec)
			return rec
		})
		c.check(results)
		tp := tracedPass{wall: wall, byMode: map[mode]*modeAgg{}}
		for k, r := range results {
			if !sameWork(r.stats(), c.first[k].stats()) {
				rep.problem("%s: traced run did different work than the untraced run (%+v vs %+v)",
					b.jobName(b.jobs[k]), workOf(r.stats()), workOf(c.first[k].stats()))
			}
			split := splitTrace(recs[k].Events())
			tp.split.add(split)
			agg := tp.byMode[b.jobs[k].mode]
			if agg == nil {
				agg = &modeAgg{}
				tp.byMode[b.jobs[k].mode] = agg
			}
			agg.wall += r.wall
			agg.split.add(split)
			agg.stats.Add(r.stats())
			if r.ens != nil {
				agg.lanes += len(r.ens.Lanes)
				for _, l := range r.ens.Lanes {
					if l.Err != nil {
						agg.retired++
					}
				}
			}
		}
		tps = append(tps, tp)
		tracedWalls = append(tracedWalls, wall)
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].wall < tps[j].wall })
	tp := tps[(len(tps)-1)/2]

	// Set-up layers, from the cold child processes.
	var parse, build, red, order []float64
	for _, s := range setups {
		parse = append(parse, s.Parse)
		build = append(build, s.Build)
		red = append(red, s.Reduce)
		order = append(order, s.Order)
	}
	m["netlist.parse_s"] = median(parse)
	m["circuit.build_s"] = median(build)
	m["sparse.order_s"] = median(order)
	s0 := setups[0]
	m["circuit.unknowns"] = float64(s0.Unknowns)
	m["circuit.nnz"] = float64(s0.NNZ)
	if b.spec.reduce {
		m["reduce.s"] = median(red)
		m["reduce.node_ratio"] = float64(s0.ReducedNodes) / float64(s0.Nodes)
		rep.note("reduce.node_ratio = %d reduced nodes / %d nodes", s0.ReducedNodes, s0.Nodes)
	}
	lu, a := b.fill()
	if a > 0 {
		m["sparse.fill_ratio"] = float64(lu) / float64(a)
		rep.note("sparse.fill_ratio = %d L+U entries / %d matrix entries", lu, a)
	}

	// Solve layers, from the median traced pass.
	var st wavepipe.Stats
	for _, agg := range tp.byMode {
		st.Add(agg.stats)
	}
	sp := tp.split
	m["transient.traced_wall_s"] = tp.wall
	m["circuit.load_s"] = sp.load
	m["circuit.loads"] = float64(sp.loads)
	m["circuit.load_us_per_call"] = perCallUS(sp.load, sp.loads)
	m["sparse.factor_s"] = sp.factor
	m["sparse.factor_us_per_call"] = perCallUS(sp.factor, sp.factors)
	m["sparse.trisolve_s"] = sp.tri
	m["transient.lte_s"] = sp.lte
	m["transient.solve_s"] = sp.solveSelf
	m["transient.other_s"] = tp.wall - sp.busy()
	rep.note("traced pass %.4f s = load %.4f + factor %.4f + trisolve %.4f + lte %.4f + newton %.4f + other %.4f",
		tp.wall, sp.load, sp.factor, sp.tri, sp.lte, sp.solveSelf, tp.wall-sp.busy())
	if b.spec.modes[0] != modeSerial {
		rep.note("parallel workload: phase times are summed over workers and ensemble lanes emit no phase spans, so other_s nets idle time, ensemble work and overlap")
	} else if tp.wall-sp.busy() < 0 {
		rep.problem("serial traced pass: phases sum to %.4f s, more than its %.4f s wall clock", sp.busy(), tp.wall)
	}
	m["sparse.refactors"] = float64(st.Refactorizations)
	m["sparse.full_factors"] = float64(st.FullFactorizations)
	m["sparse.bypassed"] = float64(st.BypassedFactorizations)
	m["sparse.refactors_per_iter"] = ratio(float64(st.Refactorizations+st.FullFactorizations), float64(st.NRIters))
	m["circuit.bypassed_evals"] = float64(st.BypassedEvals)
	m["circuit.linear_stamp_hits"] = float64(st.LinearStampHits)
	m["newton.iters"] = float64(st.NRIters)
	m["newton.iters_per_point"] = ratio(float64(st.NRIters), float64(st.Points))
	m["newton.failures"] = float64(st.NRFailures)
	m["transient.points"] = float64(st.Points)
	m["transient.lte_rejects"] = float64(st.LTERejects)
	m["transient.reject_frac"] = ratio(float64(st.LTERejects), float64(st.Points+st.LTERejects))
	m["sched.core_budget"] = float64(st.CoreBudget)
	m["sched.pipeline_workers"] = float64(st.PipelineWorkers)
	m["sched.intra_workers"] = float64(st.IntraWorkers)

	// Parallel layers, with their serial bases from the untraced passes.
	medWall := func(md mode) float64 {
		sum := 0.0
		for k, j := range b.jobs {
			if j.mode == md {
				sum += median(jobWalls[k])
			}
		}
		return sum
	}
	serialBase := func(lanes bool) float64 {
		sum := 0.0
		for key, ws := range serialWalls {
			if lanes || key[1] == 0 {
				sum += median(ws)
			}
		}
		return sum
	}
	if agg := tp.byMode[modeBackward]; agg != nil {
		s := agg.stats
		m["wavepipe.stages"] = float64(s.Stages)
		m["wavepipe.points_per_stage"] = ratio(float64(s.Points), float64(s.Stages))
		m["wavepipe.discard_frac"] = ratio(float64(s.Discarded), float64(s.Solves))
		m["wavepipe.worker_busy_s"] = agg.split.busy()
		m["wavepipe.idle_frac"] = 1 - ratio(agg.split.busy(), float64(b.spec.threads)*agg.wall)
		if s.PipelineSerialized {
			m["wavepipe.serialized"] = 1
		}
		base, par := serialBase(false), medWall(modeBackward)
		m["wavepipe.speedup_vs_serial"] = ratio(base, par)
		rep.note("wavepipe.speedup_vs_serial = serial %.4f s / backward-2T %.4f s; idle_frac over %d workers x %.4f s traced",
			base, par, b.spec.threads, agg.wall)
	}
	if agg := tp.byMode[modeWindows]; agg != nil {
		s := agg.stats
		m["windows.launched"] = float64(s.WindowsLaunched)
		m["windows.redos"] = float64(s.WindowRedos)
		m["windows.redo_frac"] = ratio(float64(s.WindowRedos), float64(s.WindowsLaunched))
		m["windows.parareal_iters"] = float64(s.PararealIters)
		base, par := serialBase(false), medWall(modeWindows)
		m["windows.speedup_vs_serial"] = ratio(base, par)
		rep.note("windows.speedup_vs_serial = serial %.4f s / windows-2 %.4f s", base, par)
	}
	if agg := tp.byMode[modeEnsemble]; agg != nil {
		m["ensemble.lanes"] = float64(agg.lanes)
		m["ensemble.retired"] = float64(agg.retired)
		base, par := serialBase(true), medWall(modeEnsemble)
		m["ensemble.speedup_vs_serial"] = ratio(base, par)
		rep.note("ensemble.speedup_vs_serial = %d serial lane runs %.4f s / ensemble %.4f s", agg.lanes, base, par)
	}
	m["trace.overhead_frac"] = median(tracedWalls)/median(untracedWalls) - 1
	rep.note("trace.overhead_frac = traced pass %.4f s / untraced pass %.4f s - 1 (%d passes each)",
		median(tracedWalls), median(untracedWalls), passes)
	return nil
}

// fill factors every simulated system once at the zero vector and returns
// the L+U entry count against the matrix entry count.
func (b *batch) fill() (lu, a int) {
	for _, p := range b.prep {
		ws := p.sys.NewWorkspace()
		x := make([]float64, p.sys.N)
		ws.Load(x, circuit.LoadParams{Alpha0: 1 / p.decks[0].TStop, Gmin: 1e-12, SrcScale: 1, FirstIter: true})
		if err := ws.Solver.Factorize(); err != nil {
			continue
		}
		f := ws.Solver.LU()
		lu += f.LNNZ() + f.UNNZ()
		a += p.sys.PatternNNZ()
	}
	return lu, a
}

type work struct{ Points, NRIters, Refactors, Full, Bypassed int }

func workOf(s wavepipe.Stats) work {
	return work{s.Points, s.NRIters, s.Refactorizations, s.FullFactorizations, s.BypassedFactorizations}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perCallUS(sec float64, calls int) float64 {
	return ratio(sec*1e6, float64(calls))
}
