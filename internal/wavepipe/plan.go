package wavepipe

// PlanThreads is the pipeline width the two-level core-budget split policy
// picks for the combined scheme: below 8 cores the pipeline gets everything
// (intra-point gangs of 2-3 rarely clear the level-schedule profitability
// gate, so they would idle); from 8 cores on, pipeline width is traded for
// gang width — the mesh circuits' LU schedules only go parallel at gang
// width >= 4, so a 2-wide pipeline with 4-wide gangs is preferred over a
// 4-wide pipeline with 2-wide gangs. That choice was made on an estimated
// rather than a measured 8-core timing and is unverified on real cores.
// Width is always clamped to the scheme's useful 2-4 range. The corescale
// and windowscale benchmarks use this as the "best WavePipe-only" baseline
// configuration at a given budget.
func PlanThreads(budget int) int {
	th := budget
	if budget >= 8 {
		th = budget / 4
	}
	if th > 4 {
		th = 4
	}
	if th < 2 {
		th = 2
	}
	return th
}
