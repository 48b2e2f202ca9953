package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/loadgen"
)

// sampleEvery picks the traced requests: every eighth request of each
// worker in the traced half of the fixed-rate phase.
const sampleEvery = 8

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent is the ID of the span that caused it (0
// for a root).
//
// The benchmark cannot enter the program, so below the root a
// request's spans are replayed: right after the sampled HTTP request
// completes, the benchmark calls each layer's entry point for the same
// key in turn (Frontend.Fetch, Coordinator.WriteOwners,
// Client(owner).Get, the owner's Cache().Get). A child's duration
// stands for the part of its parent it covers, so a span's self time
// is its duration minus its children's.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory, one slice per load worker plus one
// for the flip goroutine, and writes them out when the run ends.
type tracer struct {
	st    *stack
	clock wallClock
	// from is the start of the traced half: requests due before it are
	// the untraced control for the overhead figures.
	from    time.Duration
	spans   [][]span
	control []span
	// Digest checks (flip goroutine and end of run only).
	fpSeen, negatives uint64
	fpExpected        float64

	half     procCounters
	halfDone chan struct{}
}

func newTracer(st *stack, workers int, from time.Duration) *tracer {
	return &tracer{st: st, from: from, spans: make([][]span, workers)}
}

// markHalf snapshots the process counters when the traced half begins.
func (t *tracer) markHalf(clock wallClock) {
	t.halfDone = make(chan struct{})
	go func() {
		defer close(t.halfDone)
		clock.WaitUntil(t.from)
		t.half = readProc()
	}()
}

func (t *tracer) stopHalf() { <-t.halfDone }

// reqTrace appends one request's spans to a worker's slice.
type reqTrace struct {
	out *[]span
	req uint64
	n   int
	clk wallClock
}

// call times fn as a span under parent and returns the span's ID.
func (r *reqTrace) call(parent int, name string, fn func() error) (int, error) {
	r.n++
	id := r.n
	start := r.clk.Now()
	err := fn()
	end := r.clk.Now()
	*r.out = append(*r.out, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	return id, err
}

// probe replays the layer chain of a sampled request. It runs on the
// request's worker goroutine, after the HTTP response was read.
func (t *tracer) probe(op loadgen.Op, rec opRec) {
	if op.Intended < t.from || op.Seq%sampleEvery != 0 || !rec.ok {
		return
	}
	r := &reqTrace{out: &t.spans[op.Worker], req: uint64(op.Worker)<<32 | uint64(op.Seq), clk: t.clock}
	r.n = 1
	root := map[loadgen.OpKind]string{loadgen.OpGet: "http.get", loadgen.OpSet: "http.put", loadgen.OpMultiGet: "http.mget"}[op.Kind]
	*r.out = append(*r.out, span{Req: r.req, ID: 1, Name: root, Start: int64(rec.send), End: int64(rec.done)})
	st := t.st
	switch op.Kind {
	case loadgen.OpGet:
		key := op.Keys[0]
		fetch, _ := r.call(1, "webtier.fetch", func() error {
			data, _, err := st.front.Fetch(key)
			if err == nil {
				err = checkPage(st.corpus, key, data)
			}
			return err
		})
		owner := t.route(r, fetch, key)
		get, _ := r.call(fetch, "cacheclient.get", func() error {
			_, _, err := st.coord.Client(owner).Get(key)
			return err
		})
		if srv := st.locals[owner].Server(); srv != nil {
			_, _ = r.call(get, "cache.get", func() error { srv.Cache().Get(key); return nil })
		}
	case loadgen.OpSet:
		key := op.Keys[0]
		page, _ := st.corpus.PageByKey(key)
		value := bytes.Clone(page)
		upd, _ := r.call(1, "webtier.update", func() error { return st.front.Update(key, page) })
		owner := t.route(r, upd, key)
		set, _ := r.call(upd, "cacheclient.set", func() error {
			return st.coord.Client(owner).Set(key, page, 0)
		})
		if srv := st.locals[owner].Server(); srv != nil {
			_, _ = r.call(set, "cache.set", func() error { srv.Cache().Set(key, value, 0); return nil })
		}
	case loadgen.OpMultiGet:
		many, _ := r.call(1, "webtier.fetch_many", func() error {
			_, err := st.front.FetchMany(op.Keys...)
			return err
		})
		groups := make(map[int][]string)
		var order []int
		for _, key := range op.Keys {
			owner := t.route(r, many, key)
			if _, ok := groups[owner]; !ok {
				order = append(order, owner)
			}
			groups[owner] = append(groups[owner], key)
		}
		for _, owner := range order {
			keys := groups[owner]
			mg, _ := r.call(many, "cacheclient.multiget", func() error {
				_, err := st.coord.Client(owner).MultiGet(keys...)
				return err
			})
			if srv := st.locals[owner].Server(); srv != nil {
				for _, key := range keys {
					_, _ = r.call(mg, "cache.get", func() error { srv.Cache().Get(key); return nil })
				}
			}
		}
	}
}

// route times Coordinator.WriteOwners and returns the primary owner.
func (t *tracer) route(r *reqTrace, parent int, key string) int {
	var owners []int
	_, _ = r.call(parent, "cluster.write_owners", func() error {
		owners = t.st.coord.WriteOwners(key)
		return nil
	})
	return owners[0]
}

// flip runs one traced transition: a bloom.snapshot span per server
// whose digest the transition broadcasts, then Coordinator.SetActive.
func (t *tracer) flip(n int) error {
	from := t.st.coord.Active()
	lo, hi := 0, from // growing: every old-prefix server
	if n < from {
		lo = n // shrinking: the dying servers
	}
	r := &reqTrace{out: &t.control, req: 1<<63 | uint64(len(t.control)), clk: t.clock}
	r.n = 1
	for i := lo; i < hi; i++ {
		if err := t.digest(r, 1, i); err != nil {
			return err
		}
	}
	start := t.clock.Now()
	err := t.st.coord.SetActive(n)
	*r.out = append(*r.out, span{Req: r.req, ID: 1, Name: "cluster.set_active", Start: int64(start), End: int64(t.clock.Now())})
	return err
}

// digest times Server.SnapshotDigest on node i and checks the snapshot
// against the node's cache: every corpus key the cache does not hold
// is a negative, and the filter's "yes" answers to negatives are false
// positives, compared with Eq. 4's prediction for the resident count.
func (t *tracer) digest(r *reqTrace, parent, i int) error {
	srv := t.st.locals[i].Server()
	if srv == nil {
		return nil
	}
	var data []byte
	if _, err := r.call(parent, "bloom.snapshot", func() error {
		var err error
		data, err = srv.SnapshotDigest()
		return err
	}); err != nil {
		return fmt.Errorf("snapshot node %d: %w", i, err)
	}
	f, err := bloom.UnmarshalFilter(data)
	if err != nil {
		return fmt.Errorf("decode digest of node %d: %w", i, err)
	}
	resident := srv.Cache().Len()
	var neg, fp uint64
	for k := 0; k < t.st.corpus.Pages(); k++ {
		key := t.st.corpus.Key(k)
		if srv.Cache().Contains(key) {
			continue
		}
		neg++
		if f.Contains(key) {
			fp++
		}
	}
	t.negatives += neg
	t.fpSeen += fp
	t.fpExpected += float64(neg) * bloom.FalsePositiveRate(digestParams.Counters, digestParams.Hashes, resident)
	return nil
}

// report turns the spans and the counter deltas of the fixed-rate
// phase into the per-layer metrics.
func (t *tracer) report(rep *report, before, after counters, recs []opRec) {
	// Digest snapshots of every running server at the end of the run,
	// so each workload reports the bloom layer.
	r := &reqTrace{out: &t.control, req: 1<<63 | 1<<62, clk: t.clock}
	r.n = 1
	start := t.clock.Now()
	for i := range t.st.locals {
		if err := t.digest(r, 1, i); err != nil {
			rep.fail("%v", err)
		}
	}
	t.control = append(t.control, span{Req: r.req, ID: 1, Name: "digest.check", Start: int64(start), End: int64(t.clock.Now())})
	if limit := t.fpExpected + 4*math.Sqrt(t.fpExpected) + 2; float64(t.fpSeen) > limit {
		rep.fail("digest false positives %d exceed the Eq. 4 bound %.1f over %d negatives", t.fpSeen, limit, t.negatives)
	}

	dur := make(map[string]samples)
	self := make(map[string]samples)
	all := t.all()
	type reqSpan struct {
		req uint64
		id  int
	}
	childSum := make(map[reqSpan]time.Duration)
	for _, s := range all {
		if s.Parent != 0 {
			childSum[reqSpan{s.Req, s.Parent}] += s.dur()
		}
	}
	for _, s := range all {
		dur[s.Name] = append(dur[s.Name], s.dur())
		self[s.Name] = append(self[s.Name], s.dur()-childSum[reqSpan{s.Req, s.ID}])
	}
	q := func(m map[string]samples, name string, p float64) time.Duration { return m[name].sorted().quantile(p) }

	done := uint64(len(recs))
	web := after.web
	hits := web.Hits - before.web.Hits
	migrated := web.Migrated - before.web.Migrated
	dbf := web.DBFetches - before.web.DBFetches
	consults := migrated + web.DigestFalsePos - before.web.DigestFalsePos
	rep.set("webtier.http_self_us_p50", us(q(self, "http.get", 0.50)))
	rep.set("webtier.http_self_us_p99", us(q(self, "http.get", 0.99)))
	rep.set("webtier.fetch_us_p50", us(q(dur, "webtier.fetch", 0.50)))
	rep.set("webtier.fetch_us_p99", us(q(dur, "webtier.fetch", 0.99)))
	rep.set("webtier.fetch_many_us_p50", us(q(dur, "webtier.fetch_many", 0.50)))
	rep.set("webtier.update_us_p50", us(q(dur, "webtier.update", 0.50)))
	rep.set("webtier.hit_ratio", ratio(float64(hits), float64(hits+migrated+dbf)))
	rep.set("webtier.migrated_per_kreq", perK(migrated, done))
	rep.set("webtier.db_fetch_per_kreq", perK(dbf, done))
	rep.set("webtier.migration_useful_ratio", ratio(float64(migrated), float64(consults)))
	rep.set("webtier.cache_errors", float64(web.CacheErrors-before.web.CacheErrors))

	var setActive []float64
	for _, d := range dur["cluster.set_active"] {
		setActive = append(setActive, ms(d))
	}
	rep.set("cluster.route_ns_p50", float64(q(dur, "cluster.write_owners", 0.50)))
	rep.set("cluster.set_active_ms_p50", median(setActive))
	rep.set("cluster.set_active_ms_max", ms(q(dur, "cluster.set_active", 1)))
	rep.set("cluster.transitions", float64(after.transitions-before.transitions))

	rep.set("bloom.snapshot_ms", ms(q(dur, "bloom.snapshot", 0.50)))
	rep.set("bloom.false_pos_ratio", ratio(float64(t.fpSeen), float64(t.negatives)))
	rep.set("bloom.false_pos_predicted", ratio(t.fpExpected, float64(t.negatives)))

	rep.set("cacheclient.get_us_p50", us(q(dur, "cacheclient.get", 0.50)))
	rep.set("cacheclient.get_us_p99", us(q(dur, "cacheclient.get", 0.99)))
	rep.set("cacheclient.multiget_us_p50", us(q(dur, "cacheclient.multiget", 0.50)))
	rep.set("cacheclient.set_us_p50", us(q(dur, "cacheclient.set", 0.50)))
	rep.set("cacheclient.retries", float64(after.retries-before.retries))
	rep.set("cacheclient.breaker_opens", float64(after.breakers-before.breakers))

	rep.set("cacheserver.wire_self_us_p50", us(q(self, "cacheclient.get", 0.50)))
	var getHits, getMisses uint64
	var bytesHeld int64
	for i, l := range t.st.locals {
		srv := l.Server()
		if srv == nil {
			continue
		}
		bytesHeld += srv.Cache().Bytes()
		stats, err := t.st.coord.Client(i).Stats()
		if err != nil {
			rep.fail("stats of node %d: %v", i, err)
			continue
		}
		h, _ := strconv.ParseUint(stats["get_hits"], 10, 64)
		m, _ := strconv.ParseUint(stats["get_misses"], 10, 64)
		getHits += h
		getMisses += m
	}
	rep.set("cacheserver.hit_ratio", ratio(float64(getHits), float64(getHits+getMisses)))
	rep.set("cache.get_ns_p50", float64(q(dur, "cache.get", 0.50)))
	rep.set("cache.set_ns_p50", float64(q(dur, "cache.set", 0.50)))
	rep.set("cache.evictions", float64(after.evictions-before.evictions))
	rep.set("cache.bytes", float64(bytesHeld))

	rep.set("database.queries_per_kreq", perK(after.db.Queries-before.db.Queries, done))
	rep.set("database.max_queue_depth", float64(after.db.MaxQueueDepth))

	// Tracing overhead: the traced half against the untraced half of
	// the same phase.
	var ctlSvc, trSvc samples
	var ctlN, trN uint64
	for _, rec := range recs {
		if rec.intended < t.from {
			ctlSvc = append(ctlSvc, rec.svc())
			ctlN++
		} else {
			trSvc = append(trSvc, rec.svc())
			trN++
		}
	}
	rep.set("trace.spans", float64(len(all)))
	rep.set("trace.overhead_svc_p50_us", us(trSvc.sorted().quantile(0.5)-ctlSvc.sorted().quantile(0.5)))
	ctlCPU := ratio(us(t.half.cpu-before.proc.cpu), float64(ctlN))
	trCPU := ratio(us(after.proc.cpu-t.half.cpu), float64(trN))
	rep.set("trace.overhead_cpu_us_per_req", trCPU-ctlCPU)
	for _, s := range perLayer {
		if strings.HasPrefix(s.name, "sim.") {
			rep.set(s.name, 0)
		}
	}
}

// writeSpans writes spans as one JSON array to dir/spans-<workload>-<seed>.json.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// all returns every recorded span; call after the run.
func (t *tracer) all() []span {
	out := append([]span(nil), t.control...)
	for _, s := range t.spans {
		out = append(out, s...)
	}
	return out
}
