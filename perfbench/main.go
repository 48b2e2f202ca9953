// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints every metric by
// name with its unit; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload read_hot -seed 1 -seconds 20 -trace 0
//
// The live workloads (read_hot, write_mix, scale_flip) drive the real
// loopback stack — HTTP front end, webtier, cluster routing,
// cacheclient, memproto over TCP, cacheserver, cache, with bloom
// digests and the database behind it — from a loadgen.Runner in this
// process. des_day drives the discrete-event simulator through
// experiments.RunScenarios. -trace 1 runs the same workload with
// sampled per-layer spans and reports the per-layer metrics instead of
// the end-to-end ones. README.md documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	traceDir string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "read_hot, write_mix, scale_flip or des_day")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build",
		"directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.traced = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	rep := newReport()
	var st stamp
	switch o.workload {
	case "read_hot", "write_mix", "scale_flip":
		st, err = runLive(o, liveWorkloads[o.workload], rep)
	case "des_day":
		st, err = runDES(o, rep)
	default:
		return fmt.Errorf("unknown -workload %q (want read_hot, write_mix, scale_flip or des_day)", o.workload)
	}
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	st.Workload, st.Seed, st.Seconds, st.Traced = o.workload, o.seed, o.seconds, o.traced
	st.Nproc, st.GOMAXPROCS, st.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	line, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stamp %s\n", line)
	return rep.emit(stdout, o.traced)
}

// stamp records what a run sent, so two runs can be shown to have
// sent identical inputs: same seed, host shape, corpus, rate and
// schedule hash.
type stamp struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	Nproc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	CorpusPages  int     `json:"corpus_pages"`
	CorpusBytes  int64   `json:"corpus_bytes"`
	RatePerS     float64 `json:"rate_per_s,omitempty"`
	ScheduleOps  int     `json:"schedule_ops,omitempty"`
	ScheduleHash string  `json:"schedule_sha256,omitempty"`
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procCounters is a snapshot of the process-wide counters read at
// phase boundaries.
type procCounters struct {
	cpu        time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	wall       time.Time
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		wall:       time.Now(),
	}
}
