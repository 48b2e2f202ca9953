package main

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/experiments"
	"proteus/internal/sim"
)

// desScale is des_day's fixed scale: experiments.Quick (a compressed
// 8-minute day over a 50 000-page corpus) with the run's seed.
func desScale(seed int64) experiments.Scale {
	s := experiments.Quick()
	s.Seed = seed
	return s
}

// desSetupRepeats is how many times des_day builds the corpus; the
// build takes well under a millisecond, so more repeats steady its
// median.
const desSetupRepeats = 25

// runDES measures the discrete-event simulator: repeated
// experiments.RunScenarios passes over the four Table II scenarios
// until the measured time is used up. The first pass of a process is
// slower (lazy initialisation, heap growth) and is discarded.
//
// A pass is CPU-bound, so on a shared host its time follows the host's
// speed, which drifted by a third within minutes. A control run
// (controlWork) goes before the first pass and after each pass, and
// svc_p50_ms and cpu_us_per_req are scaled to a host on which the
// control takes controlRef; so is setup_s, by the control that follows
// it. Over ten runs this cut the spread of the pass time from 0.11 to
// 0.07. The raw figures print as info lines.
func runDES(o options, rep *report) (stamp, error) {
	scale := desScale(o.seed)
	setups := make([]float64, 0, desSetupRepeats)
	var pages int
	var bytes int64
	for i := 0; i < desSetupRepeats; i++ {
		t0 := time.Now()
		corpus, err := scale.Corpus()
		if err != nil {
			return stamp{}, err
		}
		// The corpus is lazy; deriving every page's size is the
		// build work the simulator's request sizing relies on.
		bytes = 0
		for p := 0; p < corpus.Pages(); p++ {
			bytes += int64(corpus.Size(p))
		}
		setups = append(setups, time.Since(t0).Seconds())
		pages = corpus.Pages()
	}
	stm := stamp{CorpusPages: pages, CorpusBytes: bytes, RatePerS: scale.MeanRPS}
	prevWall, prevCPU := controlWork()
	setupCtl := prevWall

	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	first, err := experiments.RunScenarios(scale)
	if err != nil {
		return stm, err
	}
	checkShapes(rep, first)
	want := simCounts(first)

	var passMs, normMs, normCPU, controlMs, traced []float64
	var spans []span
	var simReqs uint64
	var simWall, simCPU, tracedCPU time.Duration
	var mallocs uint64
	for len(passMs) < 3 || time.Now().Before(deadline) {
		p0 := readProc()
		runs, err := experiments.RunScenarios(scale)
		p1 := readProc()
		ctlWall, ctlCPU := controlWork()
		if err != nil {
			return stm, err
		}
		checkShapes(rep, runs)
		if got := simCounts(runs); got != want {
			rep.fail("RunScenarios is not deterministic: %+v, then %+v", want, got)
		}
		// Host speed at this pass: the mean of the control runs on
		// either side of it.
		hostWall := (prevWall + ctlWall) / 2
		hostCPU := (prevCPU + ctlCPU) / 2
		prevWall, prevCPU = ctlWall, ctlCPU
		passMs = append(passMs, ms(p1.wall.Sub(p0.wall)))
		normMs = append(normMs, ms(p1.wall.Sub(p0.wall))*float64(controlRef)/float64(hostWall))
		normCPU = append(normCPU, us(p1.cpu-p0.cpu)/float64(want.requests)*float64(controlRef)/float64(hostCPU))
		controlMs = append(controlMs, ms(ctlWall))
		simReqs += want.requests
		simWall += p1.wall.Sub(p0.wall)
		simCPU += p1.cpu - p0.cpu
		mallocs += p1.mallocs - p0.mallocs
		if o.traced {
			c0 := cpuTime()
			ms, err := tracedPass(scale, want, &spans, rep)
			if err != nil {
				return stm, err
			}
			tracedCPU += cpuTime() - c0
			traced = append(traced, ms)
		}
	}
	rep.attempted = uint64(len(passMs)+1) * uint64(len(sim.Scenarios()))
	if o.traced {
		rep.set("sim.requests", float64(want.requests))
		rep.set("sim.db_queries", float64(want.dbQueries))
		rep.set("sim.migrated", float64(want.migrated))
		rep.set("sim.req_per_s", float64(simReqs)/simWall.Seconds())
		for _, sc := range sim.Scenarios() {
			name := strings.ToLower(sc.String())
			var secs []float64
			for _, s := range spans {
				if s.Name == "sim.run."+name {
					secs = append(secs, s.dur().Seconds())
				}
			}
			rep.set("sim.run_s_"+name, median(secs))
		}
		rep.set("trace.spans", float64(len(spans)))
		rep.set("trace.overhead_svc_p50_us", 1000*(median(traced)-median(passMs)))
		rep.set("trace.overhead_cpu_us_per_req", (us(tracedCPU)-us(simCPU))/float64(simReqs))
		for _, s := range perLayer {
			if _, ok := rep.values[s.name]; !ok && !strings.HasPrefix(s.name, "sim.") {
				rep.set(s.name, 0)
			}
		}
		return stm, writeSpans(o.traceDir, o.workload, o.seed, spans)
	}
	rep.set("setup_s", median(setups)*float64(controlRef)/float64(setupCtl))
	rep.set("svc_p50_ms", median(normMs))
	rep.set("cpu_us_per_req", median(normCPU))
	rep.set("allocs_per_req", float64(mallocs)/float64(simReqs))
	rep.set("sat_rps", float64(simReqs)/simWall.Seconds())
	rep.set("pass_ms", median(passMs))
	rep.set("cpu_us_per_sim_req", us(simCPU)/float64(simReqs))
	rep.set("control_ms", median(controlMs))
	rep.set("raw_setup_s", median(setups))
	return stm, nil
}

// counts are the DES's exact outputs summed over the four scenarios; a
// performance change must leave them unchanged.
type counts struct{ requests, dbQueries, migrated uint64 }

func simCounts(runs *experiments.ScenarioRuns) counts {
	var c counts
	for _, r := range runs.Results {
		c.requests += r.Stats.Requests
		c.dbQueries += r.Stats.DBQueries
		c.migrated += r.Stats.MigratedOnDemand
	}
	return c
}

// checkShapes asserts the Fig. 9/11 claims the experiments tests hold
// the scenarios to: Naive spikes, Proteus does not, and Proteus saves
// cache-tier and whole-cluster energy about as well as Naive.
func checkShapes(rep *report, runs *experiments.ScenarioRuns) {
	fig9, fig11 := experiments.Fig9(runs), experiments.Fig11(runs)
	if f := fig9.SpikeFactor(sim.ScenarioNaive); f < 1.5 {
		rep.fail("Naive spike factor %.2f, want a visible spike (>= 1.5)", f)
	}
	if f := fig9.SpikeFactor(sim.ScenarioProteus); f > 1.5 {
		rep.fail("Proteus spike factor %.2f, want no spike (<= 1.5)", f)
	}
	if s := fig11.CacheSaving(sim.ScenarioProteus); s < 0.08 {
		rep.fail("Proteus cache-tier saving %.3f, want >= 0.08", s)
	}
	if s := fig11.TotalSaving(sim.ScenarioProteus); s <= 0 {
		rep.fail("Proteus whole-cluster saving %.3f, want > 0", s)
	}
	if naive, proteus := fig11.CacheSaving(sim.ScenarioNaive), fig11.CacheSaving(sim.ScenarioProteus); proteus < naive-0.1 {
		rep.fail("Proteus saving %.3f far below Naive %.3f", proteus, naive)
	}
}

// tracedPass runs the four scenarios one by one with the configuration
// experiments.RunScenarios gives them, timing each as a span under one
// des.pass root, and checks that the results equal RunScenarios' own.
// It returns the pass's wall time in milliseconds.
func tracedPass(scale experiments.Scale, want counts, spans *[]span, rep *report) (float64, error) {
	clk := wallClock{start: time.Now()}
	r := &reqTrace{out: spans, req: uint64(len(*spans)), clk: clk}
	r.n = 1
	corpus, err := scale.Corpus()
	if err != nil {
		return 0, err
	}
	var got counts
	for _, scenario := range sim.Scenarios() {
		cfg := sim.NewConfig(scenario, corpus, scale.Duration, scale.MeanRPS)
		cfg.SlotWidth = scale.SlotWidth
		cfg.CachePagesPerServer = scale.CachePagesPerServer
		cfg.Seed = scale.Seed
		cfg.Warmup = scale.Duration / 8
		cfg.TTL = 2 * scale.SlotWidth
		cfg.BootDelay = scale.SlotWidth / 16
		cfg.LatencySlots = 96
		cfg.PowerEvery = scale.Duration / 96
		var res *sim.Result
		_, err := r.call(1, "sim.run."+strings.ToLower(scenario.String()), func() error {
			var err error
			res, err = sim.Run(cfg)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("scenario %v: %w", scenario, err)
		}
		got.requests += res.Stats.Requests
		got.dbQueries += res.Stats.DBQueries
		got.migrated += res.Stats.MigratedOnDemand
	}
	end := clk.Now()
	*spans = append(*spans, span{Req: r.req, ID: 1, Name: "des.pass", End: int64(end)})
	if got != want {
		rep.fail("per-scenario runs %+v differ from RunScenarios %+v", got, want)
	}
	return float64(end) / float64(time.Millisecond), nil
}
