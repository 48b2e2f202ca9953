package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cacheclient"
	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/telemetry"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

// Stack shape shared by every live workload: 4 cache servers of
// 64 MiB each, all active, and a 5000-page corpus (about 20 MB) that
// fits in them with room to spare.
const (
	stackNodes     = 4
	corpusPages    = 5000
	nodeCacheBytes = 64 << 20
	dbShards       = 7
)

// digestParams sizes each server's counting filter, as the live
// stack of proteus-loadgen -local does.
var digestParams = bloom.Params{Counters: 1 << 18, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate}

// stack is one running loopback deployment, built from the public
// constructors: cluster.NewLocalNode servers behind a cluster
// coordinator, a webtier front end over the database, and an HTTP
// server carrying /page/ and /pages.
type stack struct {
	corpus *wiki.Corpus
	db     *database.DB
	reg    *telemetry.Registry
	locals []*cluster.LocalNode
	coord  *cluster.Coordinator
	front  *webtier.Frontend
	url    string
	http   *httpServer
}

// startStack brings the stack up. The registry is handed to every
// cache client through cluster.Config.NewClient so client retries and
// breaker openings can be read back.
func startStack(ttl time.Duration) (*stack, error) {
	corpus, err := wiki.New(corpusPages, wiki.DefaultPageSize)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	db, err := database.New(database.Config{Shards: dbShards, Corpus: corpus})
	if err != nil {
		return nil, fmt.Errorf("database: %w", err)
	}
	reg := telemetry.NewRegistry()
	locals := make([]*cluster.LocalNode, stackNodes)
	nodes := make([]cluster.Node, stackNodes)
	for i := range locals {
		locals[i] = cluster.NewLocalNode(cache.Config{MaxBytes: nodeCacheBytes}, digestParams)
		nodes[i] = locals[i]
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		InitialActive: stackNodes,
		TTL:           ttl,
		Telemetry:     reg,
		NewClient: func(addr string) *cacheclient.Client {
			return cacheclient.New(addr, cacheclient.WithTelemetry(reg))
		},
	})
	if err != nil {
		powerOff(locals)
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	front, err := webtier.New(webtier.Config{Coordinator: coord, DB: db})
	if err != nil {
		coord.Close()
		powerOff(locals)
		return nil, fmt.Errorf("frontend: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/page/", front)
	mux.Handle("/pages", front)
	hs, err := listenHTTP(mux)
	if err != nil {
		coord.Close()
		powerOff(locals)
		return nil, err
	}
	return &stack{
		corpus: corpus,
		db:     db,
		reg:    reg,
		locals: locals,
		coord:  coord,
		front:  front,
		url:    hs.url,
		http:   hs,
	}, nil
}

// httpServer is an HTTP server on a loopback port whose serving
// goroutine close waits for.
type httpServer struct {
	url    string
	srv    *http.Server
	served chan struct{}
}

func listenHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close()
	<-s.served
}

// prewarm installs every corpus page through webtier.Update with the
// given number of writers, so the timed phases start on a warm cache
// and no page is read from the database (a DB fill would mostly
// measure the database's modelled sleep).
func (s *stack) prewarm(writers int) error {
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < s.corpus.Pages(); i += writers {
				if err := s.front.Update(s.corpus.Key(i), s.corpus.Page(i)); err != nil {
					errs[w] = fmt.Errorf("prewarm %s: %w", s.corpus.Key(i), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops the HTTP server and waits for it, then the coordinator
// and every server.
func (s *stack) close() {
	s.http.close()
	s.coord.Close()
	powerOff(s.locals)
}

func powerOff(locals []*cluster.LocalNode) {
	for _, l := range locals {
		_ = l.PowerOff()
	}
}

// counters is a snapshot of every layer's counters, read at phase
// boundaries; per-layer counts are deltas between two snapshots.
type counters struct {
	web         webtier.Stats
	db          database.Stats
	transitions uint64
	retries     uint64
	breakers    uint64
	evictions   uint64
	proc        procCounters
}

func (s *stack) counters() counters {
	c := counters{
		web:         s.front.Stats(),
		db:          s.db.Stats(),
		transitions: familyTotal(s.reg, "proteus_cluster_phase_total", "transition"),
		retries:     familyTotal(s.reg, "proteus_client_retries_total", ""),
		breakers:    familyTotal(s.reg, "proteus_client_breaker_opens_total", ""),
	}
	for _, l := range s.locals {
		if srv := l.Server(); srv != nil {
			c.evictions += srv.Cache().Stats().Evictions
		}
	}
	c.proc = readProc()
	return c
}

// familyTotal sums a counter family's series, or only the series whose
// first label equals label when label is non-empty.
func familyTotal(reg *telemetry.Registry, name, label string) uint64 {
	var total uint64
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if label == "" || (len(s.Labels) > 0 && s.Labels[0].Value == label) {
				total += s.Count
			}
		}
	}
	return total
}
