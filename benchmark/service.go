package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wavepipe"
	"wavepipe/client"
	"wavepipe/internal/server"
)

// Service workload shape. Every pass deals a fixed list of jobsPerPass
// jobs to nproc closed-loop clients. Half the jobs repeat one of the four
// base decks, which sit in the artifact cache after the warm-up pass; the
// other half are value variants drawn in rotation from a pool of
// freshVariants per topology. The pool holds far more decks than the
// cache (16), so a variant has always been evicted before it comes round
// again and every such submission misses, while its reference is computed
// once. One job in highPriorityEvery asks for priority 1: every job
// requests all nproc cores, so a high-priority arrival preempts the
// running job, which checkpoints and resumes later.
const (
	jobsPerPass       = 24
	freshVariants     = 12
	highPriorityEvery = 6
	// svcNominalPass is how long one pass takes on the host the benchmark
	// was sized on; with --seconds it fixes the pass count.
	svcNominalPass = 0.27
)

var svcTopologies = []topology{svcMesh, svcInverter, svcRectifier, svcAmplifier}

// svcJob is one submission.
type svcJob struct {
	deck     Deck
	priority int
	repeat   bool
}

// passJobs builds pass p's job list: the same seed always gives the same
// decks, priorities and order.
func passJobs(seed int64, p int, base []Deck, fresh [][]Deck) []svcJob {
	jobs := make([]svcJob, 0, jobsPerPass)
	perPass := jobsPerPass / len(svcTopologies) / 2 // fresh jobs per topology and pass
	for i := 0; i < jobsPerPass; i++ {
		k := i % len(svcTopologies)
		occ := i / len(svcTopologies)
		j := svcJob{repeat: occ%2 == 0}
		if j.repeat {
			j.deck = base[k]
		} else {
			j.deck = fresh[k][(p*perPass+occ/2)%freshVariants]
		}
		if i%highPriorityEvery == highPriorityEvery-1 {
			j.priority = 1
		}
		jobs = append(jobs, j)
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(p)))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// liveService is wavesimd served in-process on a loopback listener.
type liveService struct {
	svc  *wavepipe.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startService brings up the service and its HTTP handler and waits until
// the listener answers its first request.
func startService(dir string, cores int) (*liveService, error) {
	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{Cores: cores, Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	ls := &liveService{
		svc: svc,
		srv: &http.Server{
			Handler:           server.New(server.Config{Client: svc, Metrics: svc.WritePrometheus}),
			ReadHeaderTimeout: 10 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		_ = ls.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ls.url + "/metrics")
	if err != nil {
		ls.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ls.stop()
		return nil, fmt.Errorf("first request: %s", resp.Status)
	}
	return ls, nil
}

// stop shuts the listener, waits for the serve goroutine, and closes the
// service (which waits for its jobs).
func (ls *liveService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.srv.Shutdown(ctx)
	<-ls.done
	ls.svc.Close()
}

// svcOutcome is one job as a client saw it.
type svcOutcome struct {
	job      svcJob
	id       string
	submit   float64 // Submit call
	first    float64 // Submit start to first streamed point (0: none)
	latency  float64 // Submit start to decoded Result
	fetch    float64 // stream end to decoded Result
	cacheHit bool
	res      *wavepipe.Result
	err      error
}

// runJob drives one job through the client: submit, follow the stream,
// fetch the result. One connection at a time per client.
func runJob(ctx context.Context, c *client.Client, j svcJob, cores int) svcOutcome {
	o := svcOutcome{job: j}
	start := time.Now()
	st, err := c.Submit(ctx, wavepipe.JobSpec{
		Deck:     j.deck.Text,
		Options:  wavepipe.TranOptions{Record: []string{j.deck.Probe}, CoreBudget: cores},
		Priority: j.priority,
	})
	o.submit = time.Since(start).Seconds()
	if err != nil {
		o.err = err
		return o
	}
	o.id, o.cacheHit = st.ID, st.CacheHit
	ch, err := c.Stream(ctx, st.ID)
	if err != nil {
		o.err = err
		return o
	}
	for range ch {
		if o.first == 0 {
			o.first = time.Since(start).Seconds()
		}
	}
	streamEnd := time.Now()
	o.res, o.err = c.Wait(ctx, st.ID)
	o.fetch = time.Since(streamEnd).Seconds()
	o.latency = time.Since(start).Seconds()
	return o
}

// runPass deals the jobs to the clients and returns when every job ended.
func runPass(ctx context.Context, clients []*client.Client, jobs []svcJob, cores int) ([]svcOutcome, float64) {
	out := make([]svcOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(ctx, c, jobs[i], cores)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// runService runs the service-mixed workload.
func runService(cfg config) (*report, error) {
	nproc := cfg.host.NProc
	if err := cfg.host.need("service clients", nproc); err != nil {
		return nil, err
	}
	base := make([]Deck, len(svcTopologies))
	fresh := make([][]Deck, len(svcTopologies))
	for k, t := range svcTopologies {
		for v := 0; v <= freshVariants; v++ {
			d, err := generate(t, cfg.seed, v)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				base[k] = d
			} else {
				fresh[k] = append(fresh[k], d)
			}
		}
	}
	passes := int(math.Round(float64(cfg.seconds) / svcNominalPass))
	if passes < 3 {
		passes = 3
	}
	// Pass 0 is the untimed warm-up.
	lists := make([][]svcJob, passes+1)
	for p := range lists {
		lists[p] = passJobs(cfg.seed, p, base, fresh)
	}

	root, err := stateDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	setups, err := coldSetups(cfg)
	if err != nil {
		return nil, err
	}
	ls, err := startService(root, nproc)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	defer ls.stop()

	clients := make([]*client.Client, nproc)
	for i := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		c, err := client.New(ls.url, &http.Client{Transport: tr})
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	ctx := context.Background()
	runPass(ctx, clients, lists[0], nproc)

	hits0, misses0, _ := ls.svc.CacheCounters()
	_, _, _, _, _, rejected0, preempt0 := ls.svc.SchedSnapshot()
	gc0 := readGC()
	var walls []float64
	var outs []svcOutcome
	total := 0.0
	for p := 1; p <= passes; p++ {
		o, wall := runPass(ctx, clients, lists[p], nproc)
		walls = append(walls, wall)
		total += wall
		outs = append(outs, o...)
	}
	gc1 := readGC()
	hits1, misses1, _ := ls.svc.CacheCounters()
	_, _, _, _, _, rejected1, preempt1 := ls.svc.SchedSnapshot()

	rep := newReport()
	m := rep.metrics
	checks := map[string]*deckCheck{}
	var acc accuracy
	var lat, firsts, fetches, hitSubmit, missSubmit []float64
	var st wavepipe.Stats
	resumes, repeatMisses, notIdentical := 0, 0, 0
	for _, o := range outs {
		rep.attempted++
		name := o.job.deck.Name
		if o.err != nil {
			rep.fail("%s job %s: %v", name, o.id, o.err)
			continue
		}
		if o.res == nil {
			rep.problem("%s job %s: no result", name, o.id)
			continue
		}
		lat = append(lat, o.latency)
		fetches = append(fetches, o.fetch)
		if o.first > 0 {
			firsts = append(firsts, o.first)
		}
		if o.cacheHit {
			hitSubmit = append(hitSubmit, o.submit)
		} else {
			missSubmit = append(missSubmit, o.submit)
		}
		if o.job.repeat && !o.cacheHit {
			repeatMisses++
		}
		st.Add(o.res.Stats)
		if js, err := ls.svc.Status(ctx, o.id); err == nil {
			resumes += js.Resumes
		}
		if !reachesTStop(o.res.W, o.job.deck.TStop) {
			rep.problem("%s job %s: waveform stops before TStop", name, o.id)
			continue
		}
		dc, ok := checks[o.job.deck.Text]
		if !ok {
			var err error
			if dc, err = newDeckCheck(o.job.deck); err != nil {
				return nil, err
			}
			checks[o.job.deck.Text] = dc
		}
		if err := acc.add(o.job.deck, o.res.W, dc.ref); err != nil {
			rep.problem("%s job %s: %v", name, o.id, err)
			continue
		}
		// A service job is a serial run under a core grant, possibly
		// preempted and resumed from a checkpoint: both are documented to
		// leave the waveform bit-identical to the plain serial run.
		if !sameWaveform(o.res.W, dc.serial) {
			notIdentical++
		}
		eq, err := wavepipe.Compare(o.res.W, dc.serial, o.job.deck.Probe)
		if err != nil {
			rep.problem("%s job %s: %v", name, o.id, err)
			continue
		}
		if eq.RelMax() > accuracyBar {
			rep.fail("%s job %s: deviates %.4f from the serial run (suite bar %.2f)", name, o.id, eq.RelMax(), accuracyBar)
		}
	}
	if notIdentical > 0 {
		rep.problem("%d of %d service jobs are not bit-identical to the serial run of their deck", notIdentical, len(lat))
	}
	acc.report(rep)

	var setupTotals []float64
	for _, s := range setups {
		setupTotals = append(setupTotals, s.Total)
	}
	m["setup_s"] = median(setupTotals)
	m["wall_s"] = median(walls)
	m["peak_rss_mb"] = peakRSSMiB()
	m["jobs_per_s"] = float64(len(lat)) / total
	m["job_p50_s"] = median(lat)
	tv, tp := tail(lat)
	m["job_tail_s"] = tv
	m["first_point_p50_s"] = median(firsts)
	rep.note("passes %d of %d jobs with %d closed-loop clients; wall_s is the median pass; job_tail_s is p%.1f of %d jobs",
		passes, jobsPerPass, nproc, tp, len(lat))
	rep.note("setup_s is the median of %d service start-ups (service, listener, first answered request) in fresh processes", len(setups))
	rep.note("%d distinct decks checked", len(checks))

	if cfg.trace {
		hits, misses := float64(hits1-hits0), float64(misses1-misses0)
		m["artifact.hits"] = hits
		m["artifact.misses"] = misses
		m["artifact.hit_ratio"] = ratio(hits, hits+misses)
		m["artifact.submit_hit_s"] = median(hitSubmit)
		m["artifact.submit_miss_s"] = median(missSubmit)
		rep.note("artifact.hit_ratio = %.0f hits / %.0f submissions; submit medians over %d hits and %d misses; %d repeat submissions found their deck evicted",
			hits, hits+misses, len(hitSubmit), len(missSubmit), repeatMisses)
		m["sched.preemptions"] = float64(preempt1 - preempt0)
		m["sched.rejected"] = float64(rejected1 - rejected0)
		m["sched.core_budget"] = float64(nproc)
		m["checkpoint.resumes"] = float64(resumes)
		m["wire.result_fetch_s"] = median(fetches)
		m["newton.iters"] = float64(st.NRIters)
		m["newton.iters_per_point"] = ratio(float64(st.NRIters), float64(st.Points))
		m["newton.failures"] = float64(st.NRFailures)
		m["transient.points"] = float64(st.Points)
		m["transient.lte_rejects"] = float64(st.LTERejects)
		m["transient.reject_frac"] = ratio(float64(st.LTERejects), float64(st.Points+st.LTERejects))
		m["sparse.refactors"] = float64(st.Refactorizations)
		m["sparse.full_factors"] = float64(st.FullFactorizations)
		m["sparse.bypassed"] = float64(st.BypassedFactorizations)
		m["sparse.refactors_per_iter"] = ratio(float64(st.Refactorizations+st.FullFactorizations), float64(st.NRIters))
		gc1.since(gc0).perPass(passes, m)
		if err := svcSetupLayers(outs, base, m, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// svcSetupLayers times the benchmark's own parse and build of the decks
// the service compiled on cache misses, and sizes the four base decks.
func svcSetupLayers(outs []svcOutcome, base []Deck, m map[string]float64, rep *report) error {
	parse, build := 0.0, 0.0
	n := 0
	for _, o := range outs {
		if o.err != nil || o.cacheHit {
			continue
		}
		t := time.Now()
		d, err := wavepipe.ParseDeck(o.job.deck.Text)
		if err != nil {
			return err
		}
		parse += time.Since(t).Seconds()
		t = time.Now()
		if _, err := d.Build(); err != nil {
			return err
		}
		build += time.Since(t).Seconds()
		n++
	}
	m["netlist.parse_s"] = parse
	m["circuit.build_s"] = build
	rep.note("netlist.parse_s and circuit.build_s: the benchmark's own parse and build of the %d decks that missed the cache", n)
	for _, d := range base {
		parsed, err := wavepipe.ParseDeck(d.Text)
		if err != nil {
			return err
		}
		sys, err := parsed.Build()
		if err != nil {
			return err
		}
		m["circuit.unknowns"] += float64(sys.N)
		m["circuit.nnz"] += float64(sys.PatternNNZ())
	}
	return nil
}

// serviceSetupChild is the body of a service --setup-child process: it
// starts the service and its listener in this fresh process, times them up
// to the first answered request, and prints the time as JSON.
func serviceSetupChild(cfg config, w io.Writer) error {
	root, err := stateDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	start := time.Now()
	ls, err := startService(root, cfg.host.NProc)
	if err != nil {
		return err
	}
	r := setupResult{Total: time.Since(start).Seconds()}
	ls.stop()
	return json.NewEncoder(w).Encode(r)
}

// stateDir makes a per-run directory for service state under the build
// directory, so the run writes nothing outside its checkout.
func stateDir() (string, error) {
	root := os.Getenv("BENCH_STATE_DIR")
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "service-")
}

// deckCheck holds, for one deck, the runs a service job is checked
// against: the tight-tolerance reference and the facade-default serial run.
type deckCheck struct {
	ref, serial *wavepipe.Set
}

func newDeckCheck(d Deck) (*deckCheck, error) {
	ref, _, err := runSerial(d, refRelTol, refAbsTol)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", d.Name, err)
	}
	s, _, err := runSerial(d, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("serial %s: %w", d.Name, err)
	}
	return &deckCheck{ref: ref.W, serial: s.W}, nil
}
