package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// spec names one reported metric and its unit. The tables below are
// the benchmark's whole vocabulary; BENCHMARK.json at the repository
// root registers endToEnd and perLayer with the same names and units
// (the smoke test holds them in step).
type spec struct{ name, unit string }

// endToEnd is what an untraced run (-trace 0) reports, on every
// workload. README.md gives each metric's definition per workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"svc_p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
	{"peak_rss_mb", "MB"},
}

// infos are figures an untraced run prints as info lines but leaves
// out of the result object: on a small shared host they do not repeat
// within any usable bound (README.md gives the spreads). The traced
// run reports the latencies as the per-layer metrics e2e.*. The last
// four are des_day's raw pass time, CPU per simulated request and
// setup time, and the control time they are scaled by.
var infos = []spec{
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"svc_p99_ms", "ms"},
	{"flip_svc_p99_ms", "ms"},
	{"sat_rps", "1/s"},
	{"pass_ms", "ms"},
	{"cpu_us_per_sim_req", "us"},
	{"control_ms", "ms"},
	{"raw_setup_s", "s"},
}

// perLayer is what a traced run (-trace 1) reports, on every workload.
// A layer a workload does not exercise reports 0.
var perLayer = []spec{
	{"e2e.lat_p50_ms", "ms"},
	{"e2e.lat_p99_ms", "ms"},
	{"e2e.svc_p99_ms", "ms"},
	{"e2e.flip_svc_p99_ms", "ms"},
	{"webtier.http_self_us_p50", "us"},
	{"webtier.http_self_us_p99", "us"},
	{"webtier.fetch_us_p50", "us"},
	{"webtier.fetch_us_p99", "us"},
	{"webtier.fetch_many_us_p50", "us"},
	{"webtier.update_us_p50", "us"},
	{"webtier.hit_ratio", "ratio"},
	{"webtier.migrated_per_kreq", "1/kreq"},
	{"webtier.db_fetch_per_kreq", "1/kreq"},
	{"webtier.migration_useful_ratio", "ratio"},
	{"webtier.cache_errors", "count"},
	{"cluster.route_ns_p50", "ns"},
	{"cluster.set_active_ms_p50", "ms"},
	{"cluster.set_active_ms_max", "ms"},
	{"cluster.transitions", "count"},
	{"bloom.snapshot_ms", "ms"},
	{"bloom.false_pos_ratio", "ratio"},
	{"bloom.false_pos_predicted", "ratio"},
	{"cacheclient.get_us_p50", "us"},
	{"cacheclient.get_us_p99", "us"},
	{"cacheclient.multiget_us_p50", "us"},
	{"cacheclient.set_us_p50", "us"},
	{"cacheclient.retries", "count"},
	{"cacheclient.breaker_opens", "count"},
	{"cacheserver.wire_self_us_p50", "us"},
	{"cacheserver.hit_ratio", "ratio"},
	{"cache.get_ns_p50", "ns"},
	{"cache.set_ns_p50", "ns"},
	{"cache.evictions", "count"},
	{"cache.bytes", "B"},
	{"database.queries_per_kreq", "1/kreq"},
	{"database.max_queue_depth", "count"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.achieved_rps", "1/s"},
	{"loadgen.err_ratio", "ratio"},
	{"loadgen.http_floor_us_p50", "us"},
	{"loadgen.http_floor_cpu_us_per_req", "us"},
	{"runtime.gc_per_kreq", "1/kreq"},
	{"runtime.bytes_per_req", "B"},
	{"sim.run_s_static", "s"},
	{"sim.run_s_naive", "s"},
	{"sim.run_s_consistent", "s"},
	{"sim.run_s_proteus", "s"},
	{"sim.requests", "count"},
	{"sim.db_queries", "count"},
	{"sim.migrated", "count"},
	{"sim.req_per_s", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead_svc_p50_us", "us"},
	{"trace.overhead_cpu_us_per_req", "us"},
}

// report collects one run's outcome. Workloads fill values by name;
// emit checks that every metric of the selected table was filled.
type report struct {
	attempted, failed uint64
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records an output check that did not hold; the run then
// reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints one human-readable line per metric and then the result
// object as the last line of w.
func (r *report) emit(w io.Writer, traced bool) error {
	table := endToEnd
	if traced {
		table = perLayer
	}
	out := resultOut{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(table)),
	}
	for _, s := range table {
		v, ok := r.values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", s.name, v, s.unit)
	}
	if !traced {
		for _, s := range infos {
			if v, ok := r.values[s.name]; ok {
				fmt.Fprintf(w, "info   %-36s %14.6g %s\n", s.name, v, s.unit)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// samples is a set of exact durations; quantiles are read from the
// sorted values, never from buckets, so every digit is measured.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule, or 0 when there are none.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perK returns n per thousand of base, or 0 when base is 0.
func perK(n, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(base)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
