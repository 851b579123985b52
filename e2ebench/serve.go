package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilpgen"
	"p4all/internal/pisa"
	"p4all/internal/serve"
	"p4all/internal/workload"
)

// serve-mixed traffic. The rates are constants, not derived from a
// measured capacity, so a faster or slower server sees the same offered
// load. Two sockets match the two cores of the reference machine.
const (
	serveKeys   = 100000
	serveZipf   = 0.95
	putShare    = 0.10
	lowRate     = 10000 // requests/s, open loop
	highRate    = 40000 // requests/s, open loop
	sockets     = 2
	window      = 64 // closed-loop requests in flight per socket
	serveShards = 2
	serveBatch  = 64
	// replyGrace is how long a reply may trail its phase before it
	// counts as lost; a lost reply's latency is censored there.
	replyGrace = 200 * time.Millisecond
	// maxInFlight caps the open-loop requests awaiting a reply. The
	// server's socket keeps the kernel's default receive buffer (Linux:
	// 212992 bytes, 256 datagrams of this size): when a core of a shared machine stalls
	// for ~10 ms at 40k req/s, an uncapped generator overflows it and
	// the kernel drops requests. Capped, the generator waits instead;
	// latency still runs from due time, so the stall shows in it.
	maxInFlight = 192
	// runtimeRequests is the stream fed through NetCache.DispatchAll
	// without a socket, runtimeReps times.
	runtimeRequests = 1 << 18
	runtimeReps     = 4
	// seqPhaseShift puts the phase number in a reply's Seq, so a reply
	// that trails into the next phase is told apart.
	seqPhaseShift = 24
	seqIndexMask  = 1<<seqPhaseShift - 1
	clientRcvBuf  = 4 << 20
	// servePhase is the length of each phase of a round. A run
	// interleaves rounds of low, high and closed phases and reports
	// medians over rounds, so a stall of the shared machine spoils a
	// round or two of every phase rather than the whole of one phase.
	servePhase = 800 * time.Millisecond
	tinyPhase  = 200 * time.Millisecond
)

// backendVal is the value the service stores for a key: its backend
// fetch returns 3·key, and every PUT writes the same, so a correct GET
// reply carries 3·key whatever the order of PUTs and GETs.
func backendVal(key uint64) uint64 { return 3 * key }

// reqStream is a seeded request sequence: Zipf keys, 10% PUTs.
type reqStream struct {
	keys []uint64
	put  []bool
}

func genReqStream(seed int64, n int) reqStream {
	s := reqStream{keys: workload.ZipfKeys(seed, serveKeys, serveZipf, n), put: make([]bool, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := range s.put {
		s.put[i] = rng.Float64() < putShare
	}
	return s
}

func (s reqStream) frame(i int, seq uint32) serve.Frame {
	f := serve.Frame{Op: serve.OpGet, Seq: seq, Key: s.keys[i]}
	if s.put[i] {
		f.Op, f.Val = serve.OpPut, backendVal(f.Key)
	}
	return f
}

// checkReply reports what is wrong with a reply to request f ("" if
// nothing).
func checkReply(f, got serve.Frame) string {
	switch {
	case got.Op != f.Op || got.Key != f.Key:
		return "reply for another request"
	case got.Val != backendVal(f.Key):
		return "wrong value"
	case f.Op == serve.OpPut && got.Status != serve.StatusOK:
		return "PUT not acknowledged"
	case f.Op == serve.OpGet && got.Status != serve.StatusHit && got.Status != serve.StatusMiss:
		return "GET failed"
	}
	return ""
}

// serveEnv is one set-up: a compiled layout, a running server, the
// client sockets and the seeded traffic.
type serveEnv struct {
	layout  *ilpgen.Layout
	srv     *serve.Server
	served  chan error
	conns   []*net.UDPConn
	low     reqStream
	high    reqStream
	closed  reqStream
	batches atomic.Uint64
	items   atomic.Uint64
}

func setupServe(seed int64, rounds int, phase time.Duration) (*serveEnv, error) {
	res, err := core.Compile(apps.NetCache(apps.NetCacheConfig{}).Source, pisa.EvalTarget(7*pisa.Mb/4),
		core.Options{Solver: solverOptions(), SkipCodegen: true, Name: "NetCache"})
	if err != nil {
		return nil, fmt.Errorf("compile NetCache: %w", err)
	}
	e := &serveEnv{layout: res.Layout, served: make(chan error, 1)}
	e.srv, err = serve.NewServer(serve.ServerConfig{
		Addr: "127.0.0.1:0",
		NetCache: serve.NetCacheConfig{
			Layout: res.Layout, Shards: serveShards, BatchSize: serveBatch,
			OnBatch: func(_ int, _ uint64, n int) {
				e.batches.Add(1)
				e.items.Add(uint64(n))
			},
		},
	})
	if err != nil {
		return nil, err
	}
	go func() { e.served <- e.srv.Serve() }()
	addr := net.UDPAddrFromAddrPort(e.srv.Addr())
	for i := 0; i < sockets; i++ {
		c, err := net.DialUDP("udp", nil, addr)
		if err == nil {
			// A load generator must not be what drops replies: give the
			// client sockets room for a scheduling stall's worth.
			if err = c.SetReadBuffer(clientRcvBuf); err != nil {
				c.Close()
			}
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("client socket: %w", err)
		}
		e.conns = append(e.conns, c)
	}
	e.low = genReqStream(seed, rounds*int(lowRate*phase.Seconds()))
	e.high = genReqStream(seed+1, rounds*int(highRate*phase.Seconds()))
	e.closed = genReqStream(seed+2, 1<<20)
	return e, nil
}

// close shuts the server down and waits for its receive loop to end.
func (e *serveEnv) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	err := e.srv.Shutdown()
	if serr := <-e.served; err == nil {
		err = serr
	}
	return err
}

// phaseStats is one phase's client-side tally.
type phaseStats struct {
	lat        []float64 // ms from due time (open loop)
	late       []float64 // ms the generator sent after due (open loop)
	sent       int
	replies    int
	lost       int
	wrong      map[string]int
	gets, hits int
	elapsed    time.Duration
	batchMean  float64
}

func (p *phaseStats) addWrong(why string, k int) {
	if p.wrong == nil {
		p.wrong = map[string]int{}
	}
	p.wrong[why] += k
}

// merge adds one socket's reply tally to the phase's.
func (p *phaseStats) merge(t *phaseStats) {
	p.sent += t.sent
	p.replies += t.replies
	p.lost += t.lost
	p.gets += t.gets
	p.hits += t.hits
	for why, k := range t.wrong {
		p.addWrong(why, k)
	}
}

// tally records a reply's outcome for the hit rate.
func (p *phaseStats) tally(f, got serve.Frame) {
	if f.Op == serve.OpGet {
		p.gets++
		if got.Status == serve.StatusHit {
			p.hits++
		}
	}
}

func (p *phaseStats) rate() float64 { return float64(p.replies) / p.elapsed.Seconds() }

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// openLoop sends n requests of s from off on, request i due at i/rate
// after the start whether or not earlier replies came back (unless
// maxInFlight of them have not), alternating sockets. Latency runs from
// the due time, so a stall also delays what queues behind it.
func (e *serveEnv) openLoop(phase, off, n int, s reqStream, rate float64, inject bool) *phaseStats {
	interval := float64(time.Second) / rate
	due := func(i int) time.Duration { return time.Duration(float64(i) * interval) }
	collectEnd := due(n) + replyGrace
	frame := func(i int) serve.Frame {
		return s.frame((off+i)%len(s.keys), uint32(phase)<<seqPhaseShift|uint32(i))
	}
	p := &phaseStats{late: make([]float64, 0, n)}
	recvAt := make([]time.Duration, n) // 0: no reply
	var replied atomic.Int64
	tallies := make([]phaseStats, sockets)
	e.batches.Store(0)
	e.items.Store(0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sockets; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			conn := e.conns[c]
			conn.SetReadDeadline(start.Add(collectEnd))
			var buf [serve.FrameSize * 2]byte
			for want := (n - c + sockets - 1) / sockets; t.replies < want; {
				m, err := conn.Read(buf[:])
				if err != nil {
					return // deadline: the rest are lost
				}
				f, err := serve.DecodeFrame(buf[:m])
				if err != nil || int(f.Seq>>seqPhaseShift) != phase {
					continue // not this phase's reply
				}
				i := int(f.Seq & seqIndexMask)
				if i >= n || i%sockets != c || recvAt[i] != 0 {
					t.addWrong("unexpected or duplicate Seq", 1)
					continue
				}
				recvAt[i] = time.Since(start)
				replied.Add(1)
				t.replies++
				if inject && i == n/2 {
					f.Val ^= 1
				}
				req := frame(i)
				if why := checkReply(req, f); why != "" {
					t.addWrong(why, 1)
				}
				t.tally(req, f)
			}
		}(c)
	}
	var buf [serve.FrameSize]byte
	for i := 0; i < n; i++ {
		if wait := due(i) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		for i-int(replied.Load()) >= maxInFlight && time.Since(start) < collectEnd {
			time.Sleep(20 * time.Microsecond)
		}
		p.late = append(p.late, float64(time.Since(start)-due(i))/1e6)
		frame(i).Encode(buf[:])
		e.conns[i%sockets].Write(buf[:]) // a failed send shows as a lost reply
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for c := range tallies {
		p.merge(&tallies[c])
	}
	p.sent = n
	p.lat = make([]float64, n)
	for i, at := range recvAt {
		if at == 0 {
			p.lost++
			at = collectEnd
		}
		p.lat[i] = float64(at-due(i)) / 1e6
	}
	p.batchMean = ratio(float64(e.items.Load()), float64(e.batches.Load()))
	return p
}

// closedLoop keeps window requests in flight on each socket for dur,
// sending the next as each reply arrives. Socket c sends requests off+c,
// off+c+sockets, ... of s.
func (e *serveEnv) closedLoop(phase, off int, s reqStream, dur time.Duration) *phaseStats {
	p := &phaseStats{}
	tallies := make([]phaseStats, sockets)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sockets; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			conn := e.conns[c]
			// pending maps Seq to request. The two shards answer out
			// of order: a request that waits for its shard's flush can
			// trail many later ones, so no fixed ring of slots will do.
			pending := make(map[uint32]serve.Frame, window)
			var out [serve.FrameSize]byte
			var in [serve.FrameSize * 2]byte
			send := func() {
				seq := uint32(phase)<<seqPhaseShift | uint32(t.sent&seqIndexMask)
				f := s.frame((off+c+sockets*t.sent)%len(s.keys), seq)
				pending[seq] = f
				f.Encode(out[:])
				conn.Write(out[:])
				t.sent++
			}
			refill := func() {
				for len(pending) < window && time.Since(start) < dur {
					send()
				}
			}
			refill()
			for len(pending) > 0 {
				conn.SetReadDeadline(time.Now().Add(replyGrace))
				m, err := conn.Read(in[:])
				if err != nil {
					t.lost += len(pending)
					clear(pending)
					if !isTimeout(err) {
						return
					}
					refill()
					continue
				}
				f, err := serve.DecodeFrame(in[:m])
				if err != nil || int(f.Seq>>seqPhaseShift) != phase {
					continue
				}
				req, ok := pending[f.Seq]
				if !ok {
					continue // a reply that trailed a timeout
				}
				delete(pending, f.Seq)
				t.replies++
				if why := checkReply(req, f); why != "" {
					t.addWrong(why, 1)
				}
				t.tally(req, f)
				refill()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for c := range tallies {
		p.merge(&tallies[c])
	}
	return p
}

// runtimeRPS feeds requests through NetCache.DispatchAll and Drain on a
// fresh service with no socket, and returns the median requests/s.
func runtimeRPS(tr *tracer, layout *ilpgen.Layout, s reqStream) (float64, error) {
	nc, err := serve.NewNetCache(serve.NetCacheConfig{Layout: layout, Shards: serveShards, BatchSize: serveBatch})
	if err != nil {
		return 0, err
	}
	reqs := make([]serve.Request, runtimeRequests)
	for i := range reqs {
		f := s.frame(i%len(s.keys), uint32(i))
		reqs[i] = serve.Request{Op: f.Op, Seq: f.Seq, Key: f.Key, Val: f.Val}
	}
	const chunk = 4096
	var rates []float64
	for k := 0; k < runtimeReps && err == nil; k++ {
		start := time.Now()
		for off := 0; off < len(reqs) && err == nil; off += chunk {
			tr.do("serve", "dispatch", func() { err = nc.DispatchAll(reqs[off:min(off+chunk, len(reqs))]) })
		}
		tr.do("serve", "drain", nc.Drain)
		rates = append(rates, float64(len(reqs))/time.Since(start).Seconds())
	}
	if cerr := nc.Close(); err == nil {
		err = cerr
	}
	return median(rates), err
}

// serveRounds holds a pass's phases, one entry per round.
type serveRounds struct {
	low, high, closed []*phaseStats
	runtimeRPS        float64
}

// maxRounds bounds the rounds of a pass: a phase number must fit the
// high byte of Seq.
const maxRounds = (1<<(32-seqPhaseShift) - 1) / 3

// rounds runs rounds of a low, a high and a closed phase until the
// budget is spent or, when n > 0, n rounds are done; then, if asked, the
// socketless runtime measurement.
func (e *serveEnv) rounds(tr *tracer, budget time.Duration, n int, phase time.Duration, inject, withRuntime bool) (*serveRounds, error) {
	out := &serveRounds{}
	nLow, nHigh := int(lowRate*phase.Seconds()), int(highRate*phase.Seconds())
	start := time.Now()
	closedOff := 0
	for k := 0; k < maxRounds && more(k, n, start, budget); k++ {
		id := 1 + 3*k
		tr.do("serve", "open-loop.low", func() {
			out.low = append(out.low, e.openLoop(id, k*nLow, nLow, e.low, lowRate, inject && k == 0))
		})
		tr.do("serve", "open-loop.high", func() {
			out.high = append(out.high, e.openLoop(id+1, k*nHigh, nHigh, e.high, highRate, false))
		})
		tr.do("serve", "closed-loop", func() {
			c := e.closedLoop(id+2, closedOff, e.closed, phase)
			closedOff += c.sent
			out.closed = append(out.closed, c)
		})
	}
	if !withRuntime {
		return out, nil
	}
	var err error
	out.runtimeRPS, err = runtimeRPS(tr, e.layout, e.closed)
	return out, err
}

// all returns every phase of the pass.
func (p *serveRounds) all() []*phaseStats {
	return append(append(append([]*phaseStats(nil), p.low...), p.high...), p.closed...)
}

// perRound is the median over rounds of f applied to each round's phase.
func perRound(phases []*phaseStats, f func(*phaseStats) float64) float64 {
	xs := make([]float64, len(phases))
	for i, p := range phases {
		xs[i] = f(p)
	}
	return median(xs)
}

func latQuantile(q float64) func(*phaseStats) float64 {
	return func(p *phaseStats) float64 { return quantile(p.lat, q) }
}

func (p *serveRounds) count(r *result) {
	for _, ph := range p.all() {
		r.attempted += ph.sent
		r.failed += ph.lost
		if ph.lost > 0 {
			r.reasons["lost replies"] += ph.lost
		}
		for why, k := range ph.wrong {
			r.wrong = true
			r.failed += k
			r.reasons["wrong reply: "+why] += k
		}
	}
}

func runServe(cfg config, r *result) error {
	phase := servePhase
	if cfg.Tiny {
		phase = tinyPhase
	}
	rounds := int(cfg.budget()/(3*phase)) + 1
	var envs []*serveEnv
	setup, err := setUp(setupReps, func() error {
		e, err := setupServe(cfg.Seed, rounds, phase)
		if err == nil {
			envs = append(envs, e)
		}
		return err
	})
	// The last set-up serves; the others only measured set-up time.
	for i, e := range envs {
		if i < len(envs)-1 || err != nil {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return err
	}
	env := envs[len(envs)-1]
	// Collect the set-up's garbage (three compiles) now rather than in
	// the middle of the first round.
	runtime.GC()

	start := time.Now()
	p, err := env.rounds(nil, cfg.budget(), cfg.count(), phase, cfg.InjectWrongReply, cfg.Trace)
	untraced := time.Since(start)
	if err != nil {
		env.close()
		return err
	}
	p.count(r)

	var pt *serveRounds
	var traced time.Duration
	if cfg.Trace {
		tr := newTracer()
		r.tr = tr
		root := tr.begin("bench", "serve-mixed")
		start = time.Now()
		pt, err = env.rounds(tr, 0, len(p.low), phase, false, true)
		traced = time.Since(start)
		tr.end(root)
		if err != nil {
			env.close()
			return err
		}
		pt.count(r)
	}
	drops := env.srv.Drops()
	hits, misses, admits := env.srv.Cache().Stats()
	if err := env.close(); err != nil {
		return err
	}
	if drops > 0 {
		r.failed += int(drops)
		r.reasons["server dropped datagrams"] += int(drops)
	}
	fmt.Fprintf(os.Stderr, "serve-mixed: %d rounds; low p50 %.3f ms over %d samples; high p90 %.3f ms over %d samples; closed %.0f replies/s\n",
		len(p.low), perRound(p.low, latQuantile(0.5)), len(p.low)*len(p.low[0].lat),
		perRound(p.high, latQuantile(0.9)), len(p.high)*len(p.high[0].lat), perRound(p.closed, (*phaseStats).rate))

	if !cfg.Trace {
		gets, ghits := 0, 0
		for _, ph := range p.all() {
			gets += ph.gets
			ghits += ph.hits
		}
		r.endToEnd("setup_s", setup, "s")
		r.endToEnd("latency_ms", perRound(p.low, latQuantile(0.5)), "ms")
		r.endToEnd("longest_wait_ms", perRound(p.high, latQuantile(0.9)), "ms")
		r.endToEnd("throughput_per_s", perRound(p.closed, (*phaseStats).rate), "1/s")
		r.endToEnd("quality", ratio(float64(ghits), float64(gets)), "score")
		return nil
	}

	serveRPS := perRound(pt.closed, (*phaseStats).rate)
	var lateLow, lateHigh []float64
	var samplesLow, samplesHigh, lost int
	for _, ph := range pt.low {
		lateLow = append(lateLow, ph.late...)
		samplesLow += len(ph.lat)
	}
	for _, ph := range pt.high {
		lateHigh = append(lateHigh, ph.late...)
		samplesHigh += len(ph.lat)
	}
	for _, ph := range append(p.all(), pt.all()...) {
		lost += ph.lost
	}
	r.layer("serve.runtime_rps", pt.runtimeRPS, "1/s")
	r.layer("serve.socket_share", 1-ratio(serveRPS, pt.runtimeRPS), "ratio")
	r.layer("serve.batch_mean.low", perRound(pt.low, func(p *phaseStats) float64 { return p.batchMean }), "count")
	r.layer("serve.batch_mean.high", perRound(pt.high, func(p *phaseStats) float64 { return p.batchMean }), "count")
	r.layer("serve.gen_late_ms.low", median(lateLow), "ms")
	r.layer("serve.gen_late_ms.high", median(lateHigh), "ms")
	r.layer("serve.lat_p99_ms.low", perRound(pt.low, latQuantile(0.99)), "ms")
	r.layer("serve.lat_p50_ms.high", perRound(pt.high, latQuantile(0.5)), "ms")
	r.layer("serve.lat_p99_ms.high", perRound(pt.high, latQuantile(0.99)), "ms")
	r.layer("serve.samples.low", float64(samplesLow), "count")
	r.layer("serve.samples.high", float64(samplesHigh), "count")
	r.layer("serve.drops", float64(drops), "count")
	r.layer("serve.lost", float64(lost), "count")
	r.layer("structures.hits", float64(hits), "count")
	r.layer("structures.misses", float64(misses), "count")
	r.layer("structures.admits", float64(admits), "count")
	r.tr.traceMetrics(r, untraced, traced)
	return nil
}
