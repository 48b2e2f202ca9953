package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"proteus/internal/loadgen"
	"proteus/internal/wiki"
)

// liveWorkload is one traffic mix over the loopback stack.
type liveWorkload struct {
	name string
	// rate is the fixed open-loop (Poisson) arrival rate, req/s.
	rate float64
	mix  loadgen.Mix
	// ttl is the coordinator's hot-data window.
	ttl time.Duration
	// flips is the active-count cycle run through Coordinator.SetActive
	// during the fixed-rate phase, evenly spaced; empty means none.
	flips []int
}

const zipfAlpha = 0.99

var liveWorkloads = map[string]liveWorkload{
	"read_hot": {
		name: "read_hot",
		rate: 1000,
		mix:  loadgen.Mix{Get: 1},
		ttl:  time.Minute,
	},
	"write_mix": {
		name: "write_mix",
		rate: 750,
		mix:  loadgen.Mix{Get: 0.70, Set: 0.15, MultiGet: 0.15, MultiGetKeys: 8},
		ttl:  time.Minute,
	},
	"scale_flip": {
		name: "scale_flip",
		rate: 300,
		mix:  loadgen.Mix{Get: 1},
		// ttl is set from the flip gap in runLive: shorter than the
		// gap, so every flip's TTL power-off lands inside the run.
		flips: []int{3, 4, 2, 4, 3, 4},
	},
}

// setupRepeats is how many times a run builds and prewarms the stack;
// setup_s is the median, and the last stack is the one measured.
const setupRepeats = 5

// closedShare is the part of the measured time spent in the
// closed-loop (saturation) phase; the rest is the fixed-rate phase.
const closedShare = 0.25

// wallClock anchors a phase timeline to the wall clock.
type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) WaitUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// freeClock never waits: a Runner driven by it sends each worker's next
// request as soon as the previous one completes (a closed loop).
type freeClock struct{ wallClock }

func (freeClock) WaitUntil(time.Duration) {}

// opRec is one sent request: when it was due, sent and completed on
// the phase timeline, so lat = lag + svc holds for every request.
type opRec struct {
	intended, send, done time.Duration
	ok                   bool
}

func (r opRec) lat() time.Duration { return r.done - r.intended }
func (r opRec) svc() time.Duration { return r.done - r.send }
func (r opRec) lag() time.Duration { return r.send - r.intended }

// sender sends loadgen operations over HTTP and checks every body
// against the corpus. Each worker goroutine touches only its own
// slots of recs and bufs.
type sender struct {
	st     *stack
	client *http.Client
	clock  loadgen.Clock
	// stopAt ends a closed-loop phase: operations due after it are
	// skipped and not recorded. Zero means no cut-off.
	stopAt time.Duration
	recs   [][]opRec
	bufs   []bytes.Buffer
	// probe, when set, is called after each recorded request (the
	// traced run's per-layer sampling).
	probe func(op loadgen.Op, rec opRec)
}

func newSender(st *stack, workers int, clock loadgen.Clock) *sender {
	return &sender{
		st: st,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		clock: clock,
		recs:  make([][]opRec, workers),
		bufs:  make([]bytes.Buffer, workers),
	}
}

func (d *sender) close() { d.client.CloseIdleConnections() }

func (d *sender) do(op loadgen.Op) error {
	sentAt := d.clock.Now()
	if d.stopAt > 0 && sentAt >= d.stopAt {
		return nil
	}
	err := d.send(op)
	rec := opRec{intended: op.Intended, send: sentAt, done: d.clock.Now(), ok: err == nil}
	d.recs[op.Worker] = append(d.recs[op.Worker], rec)
	if d.probe != nil {
		d.probe(op, rec)
	}
	return err
}

// send sends one operation and checks its output byte for byte.
func (d *sender) send(op loadgen.Op) error {
	buf := &d.bufs[op.Worker]
	switch op.Kind {
	case loadgen.OpGet:
		if err := d.get(d.st.url+"/page/"+op.Keys[0], buf); err != nil {
			return err
		}
		return checkPage(d.st.corpus, op.Keys[0], buf.Bytes())
	case loadgen.OpSet:
		page, _ := d.st.corpus.PageByKey(op.Keys[0])
		req, err := http.NewRequest(http.MethodPut, d.st.url+"/page/"+op.Keys[0], bytes.NewReader(page))
		if err != nil {
			return err
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("PUT %s: status %d", op.Keys[0], resp.StatusCode)
		}
		return nil
	case loadgen.OpMultiGet:
		if err := d.get(d.st.url+"/pages?keys="+strings.Join(op.Keys, ","), buf); err != nil {
			return err
		}
		var pages map[string][]byte
		if err := json.Unmarshal(buf.Bytes(), &pages); err != nil {
			return fmt.Errorf("multiget body: %w", err)
		}
		if len(pages) != len(op.Keys) {
			return fmt.Errorf("multiget returned %d of %d keys", len(pages), len(op.Keys))
		}
		for _, k := range op.Keys {
			if err := checkPage(d.st.corpus, k, pages[k]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

func (d *sender) get(url string, buf *bytes.Buffer) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

func checkPage(corpus *wiki.Corpus, key string, got []byte) error {
	want, ok := corpus.PageByKey(key)
	if !ok {
		return fmt.Errorf("key %s is not in the corpus", key)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("wrong body for %s: %d bytes, want %d", key, len(got), len(want))
	}
	return nil
}

// records merges every worker's records; call after the phase ended.
func (d *sender) records() []opRec {
	var all []opRec
	for _, rs := range d.recs {
		all = append(all, rs...)
	}
	return all
}

// loadConfig is the Runner configuration of a live workload's fixed-
// rate phase; the schedule it yields is a pure function of it.
func loadConfig(wl liveWorkload, corpus *wiki.Corpus, seed int64, workers int, dur time.Duration) loadgen.Config {
	return loadgen.Config{
		Workers:   workers,
		Duration:  dur,
		Arrivals:  loadgen.Poisson{Rate: wl.rate},
		Mix:       wl.mix,
		Keys:      corpus,
		ZipfAlpha: zipfAlpha,
		Seed:      seed,
	}
}

// scheduleHash hashes the materialised schedule: two runs with the
// same hash sent the same operations on the same timeline.
func scheduleHash(cfg loadgen.Config) (string, int, error) {
	ops, err := loadgen.ScheduleOps(cfg)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%d %d %s %d %s\n", op.Worker, op.Seq, op.Kind, op.Intended, strings.Join(op.Keys, ","))
	}
	return hex.EncodeToString(h.Sum(nil)), len(ops), nil
}

// runLive measures one live workload: setup (repeated), a closed-loop
// saturation phase, then the fixed-rate phase every other metric is
// read from.
func runLive(o options, wl liveWorkload, rep *report) (stamp, error) {
	workers := runtime.NumCPU()
	total := time.Duration(o.seconds) * time.Second
	closedDur := time.Duration(float64(total) * closedShare)
	fixedDur := total - closedDur
	var flipGap time.Duration
	if len(wl.flips) > 0 {
		flipGap = fixedDur / time.Duration(len(wl.flips)+1)
		wl.ttl = flipGap * 3 / 4
	}

	var st *stack
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(wl.ttl); err != nil {
			return stamp{}, err
		}
		if err := st.prewarm(workers); err != nil {
			st.close()
			return stamp{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	rep.set("setup_s", median(setups))

	cfg := loadConfig(wl, st.corpus, o.seed, workers, fixedDur)
	hash, nops, err := scheduleHash(cfg)
	if err != nil {
		return stamp{}, err
	}
	stm := stamp{
		CorpusPages:  st.corpus.Pages(),
		CorpusBytes:  st.corpus.TotalBytes(),
		RatePerS:     wl.rate,
		ScheduleOps:  nops,
		ScheduleHash: hash,
	}
	afterSetup := st.counters()

	// The traced run spends the closed-loop share on the HTTP control
	// pass instead (read_hot) and samples spans in the second half of
	// the fixed-rate phase.
	var tr *tracer
	if o.traced {
		tr = newTracer(st, workers, fixedDur/2)
	} else {
		sat, err := closedLoop(st, wl, o.seed, workers, closedDur, rep)
		if err != nil {
			return stm, err
		}
		rep.set("sat_rps", sat)
	}

	clock := wallClock{start: time.Now()}
	d := newSender(st, workers, clock)
	defer d.close()
	if tr != nil {
		d.probe = tr.probe
		tr.clock = clock
	}
	cfg.Clock = clock
	cfg.Do = d.do
	runner, err := loadgen.NewRunner(cfg)
	if err != nil {
		return stm, err
	}

	var flipAt []time.Duration
	var flipWG sync.WaitGroup
	if len(wl.flips) > 0 {
		flipWG.Add(1)
		go func() {
			defer flipWG.Done()
			for i, n := range wl.flips {
				clock.WaitUntil(flipGap * time.Duration(i+1))
				flipAt = append(flipAt, clock.Now())
				var err error
				if tr != nil {
					err = tr.flip(n)
				} else {
					err = st.coord.SetActive(n)
				}
				if err != nil {
					rep.fail("SetActive(%d): %v", n, err)
				}
			}
		}()
	}
	before := st.counters()
	if tr != nil {
		tr.markHalf(clock)
	}
	_, runErr := runner.Run()
	elapsed := clock.Now()
	after := st.counters()
	flipWG.Wait()
	if tr != nil {
		tr.stopHalf()
	}
	if runErr != nil {
		return stm, runErr
	}
	recs := d.records()

	// Output checks.
	var done, failed uint64
	for _, r := range recs {
		done++
		if !r.ok {
			failed++
		}
	}
	rep.attempted += done
	rep.failed += failed
	if done == 0 {
		return stm, fmt.Errorf("fixed-rate phase sent no requests")
	}
	switch wl.name {
	case "read_hot":
		if q := after.db.Queries - afterSetup.db.Queries; q != 0 {
			rep.fail("read_hot made %d database queries after setup", q)
		}
		if t := after.transitions - afterSetup.transitions; t != 0 {
			rep.fail("read_hot ran %d transitions after setup", t)
		}
	case "scale_flip":
		if m := after.web.Migrated - before.web.Migrated; m == 0 {
			rep.fail("scale_flip migrated no keys")
		}
		if len(flipAt) != len(wl.flips) {
			rep.fail("scale_flip ran %d of %d flips", len(flipAt), len(wl.flips))
		}
	}

	var lat, svc, lag samples
	for _, r := range recs {
		lat = append(lat, r.lat())
		svc = append(svc, r.svc())
		lag = append(lag, r.lag())
	}
	lat, svc, lag = lat.sorted(), svc.sorted(), lag.sorted()

	// Tail percentiles are medians over windows of the phase, so one
	// host stall moves one window, not the run's figure. Without flips
	// the windows are equal slices of the phase; with flips each window
	// starts at a flip and lasts one flip gap, and flip_svc_p99_ms
	// looks only at requests sent within one TTL after the flip.
	var windows, flipWindows [][2]time.Duration
	if len(flipAt) == 0 {
		w := fixedDur / tailWindows
		for i := time.Duration(0); i < tailWindows; i++ {
			windows = append(windows, [2]time.Duration{i * w, (i + 1) * w})
		}
		flipWindows = windows
	} else {
		for _, f := range flipAt {
			windows = append(windows, [2]time.Duration{f, f + flipGap})
			flipWindows = append(flipWindows, [2]time.Duration{f, f + wl.ttl})
		}
	}
	prefix := ""
	if o.traced {
		prefix = "e2e."
	}
	rep.set(prefix+"lat_p50_ms", ms(lat.quantile(0.50)))
	rep.set(prefix+"lat_p99_ms", windowP99(recs, windows, opRec.lat))
	rep.set(prefix+"svc_p99_ms", windowP99(recs, windows, opRec.svc))
	rep.set(prefix+"flip_svc_p99_ms", windowP99(recs, flipWindows, opRec.svc))

	if o.traced {
		tr.report(rep, before, after, recs)
		if wl.name == "read_hot" {
			if err := httpFloor(st, cfg, closedDur, rep); err != nil {
				return stm, err
			}
		} else {
			rep.set("loadgen.http_floor_us_p50", 0)
			rep.set("loadgen.http_floor_cpu_us_per_req", 0)
		}
		rep.set("loadgen.lag_p50_ms", ms(lag.quantile(0.50)))
		rep.set("loadgen.lag_p99_ms", ms(lag.quantile(0.99)))
		rep.set("loadgen.achieved_rps", float64(done)/elapsed.Seconds())
		rep.set("loadgen.err_ratio", float64(failed)/float64(done))
		rep.set("runtime.gc_per_kreq", perK(uint64(after.proc.numGC-before.proc.numGC), done))
		rep.set("runtime.bytes_per_req", float64(after.proc.totalAlloc-before.proc.totalAlloc)/float64(done))
		return stm, writeSpans(o.traceDir, wl.name, o.seed, tr.all())
	}
	rep.set("svc_p50_ms", ms(svc.quantile(0.50)))
	rep.set("cpu_us_per_req", us(after.proc.cpu-before.proc.cpu)/float64(done))
	rep.set("allocs_per_req", float64(after.proc.mallocs-before.proc.mallocs)/float64(done))
	return stm, nil
}

// tailWindows is the number of windows a tail percentile is the
// median over.
const tailWindows = 6

// windowP99 returns, in milliseconds, the median over windows of the
// p99 of f for the requests sent inside each window.
func windowP99(recs []opRec, windows [][2]time.Duration, f func(opRec) time.Duration) float64 {
	var p99s []float64
	for _, w := range windows {
		var xs samples
		for _, r := range recs {
			if r.send >= w[0] && r.send < w[1] {
				xs = append(xs, f(r))
			}
		}
		if len(xs) > 0 {
			p99s = append(p99s, ms(xs.sorted().quantile(0.99)))
		}
	}
	return median(p99s)
}

// closedLoop runs workers back to back for dur and returns requests
// per second. The schedule is the workload's mix at a rate no
// two-core host reaches, so it never runs dry before dur.
func closedLoop(st *stack, wl liveWorkload, seed int64, workers int, dur time.Duration, rep *report) (float64, error) {
	clock := freeClock{wallClock{start: time.Now()}}
	d := newSender(st, workers, clock)
	defer d.close()
	d.stopAt = dur
	cfg := loadConfig(wl, st.corpus, seed^0x5a7, workers, dur)
	cfg.Arrivals = loadgen.Constant{Rate: 40000}
	cfg.Clock = clock
	cfg.Do = d.do
	runner, err := loadgen.NewRunner(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := runner.Run(); err != nil {
		return 0, err
	}
	recs := d.records()
	// Completions per second in each of tailWindows equal windows; the
	// median resists a host stall in one of them.
	counts := make([]float64, tailWindows)
	w := dur / tailWindows
	for _, r := range recs {
		rep.attempted++
		if !r.ok {
			rep.failed++
		}
		if i := int(r.send / w); i < tailWindows {
			counts[i]++
		}
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("closed-loop phase completed no requests")
	}
	return median(counts) / w.Seconds(), nil
}

// httpFloor replays the fixed-rate schedule, cut to dur, against a
// handler that serves corpus bytes directly: the HTTP and generator
// cost with no stack behind it, so stack cost = read_hot − floor.
func httpFloor(st *stack, cfg loadgen.Config, dur time.Duration, rep *report) error {
	floor, err := startFloor(st.corpus)
	if err != nil {
		return err
	}
	defer floor.close()
	clock := wallClock{start: time.Now()}
	d := newSender(&stack{corpus: st.corpus, url: floor.url}, cfg.Workers, clock)
	defer d.close()
	cfg.Duration = dur
	cfg.Clock = clock
	cfg.Do = d.do
	runner, err := loadgen.NewRunner(cfg)
	if err != nil {
		return err
	}
	before := readProc()
	if _, err := runner.Run(); err != nil {
		return err
	}
	after := readProc()
	recs := d.records()
	var svc samples
	for _, r := range recs {
		rep.attempted++
		if !r.ok {
			rep.failed++
		}
		svc = append(svc, r.svc())
	}
	if len(recs) == 0 {
		return fmt.Errorf("HTTP control pass sent no requests")
	}
	rep.set("loadgen.http_floor_us_p50", us(svc.sorted().quantile(0.50)))
	rep.set("loadgen.http_floor_cpu_us_per_req", us(after.cpu-before.cpu)/float64(len(recs)))
	return nil
}

// startFloor serves GET /page/<key> straight from the corpus.
func startFloor(corpus *wiki.Corpus) (*httpServer, error) {
	return listenHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page, ok := corpus.PageByKey(strings.TrimPrefix(r.URL.Path, "/page/"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(page)
	}))
}
