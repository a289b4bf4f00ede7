package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/remote"
	"kvcsd/internal/server"
	"kvcsd/internal/wire"
)

// The remote workloads drive an in-process kvcsd-server (one simulated
// device, default configuration) over loopback TCP with the pipelined
// remote client. remote-get (W2) runs closed-loop GETs from two connections;
// remote-mixed (W3) runs the same GETs on one connection beside a closed-loop
// Put stream on the other. Their clock is the wall clock: the gateway forms
// virtual-time batches in wall-clock arrival order, so the virtual metrics
// these workloads report come only from sequential set-up steps.
const (
	remotePairs      = 524288 // 16 B keys, 32 B values
	remoteFlushPairs = 2048   // mean pairs per bulk submission during the load
	remoteWarmStride = 64     // the warm-up GETs every 64th key
	remoteCallers    = 4      // closed-loop callers per connection
	remoteSetups     = 3
	getRoundOps      = 51200 // remote-get: GETs per timed round
	mixedRoundOps    = 32768 // remote-mixed: GETs per timed round
)

// splitmix is the splitmix64 finalizer, used to derive keys and values.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pairGen derives the keys and values of one keyspace from the seed: key i
// is a seeded hash of i followed by i itself (so keys are unique and land
// in random order), and its 32-byte value is a seeded hash stream of i.
type pairGen struct{ salt uint64 }

func newPairGen(seed int64, keyspace uint64) pairGen {
	return pairGen{salt: splitmix(uint64(seed)*0x100000001B3 ^ keyspace)}
}

func (g pairGen) key(i uint64) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, splitmix(g.salt^i))
	binary.BigEndian.PutUint64(k[8:], i)
	return k
}

func (g pairGen) value(i uint64) []byte {
	v := make([]byte, 32)
	h := g.salt ^ (i * 0xD6E8FEB86659FD93)
	for o := 0; o < len(v); o += 8 {
		h = splitmix(h)
		binary.LittleEndian.PutUint64(v[o:], h)
	}
	return v
}

// pairSet holds every pair of keyspace "bench" in one buffer, generated once
// per process, so loading and checking allocate nothing per pair.
type pairSet struct{ buf []byte }

const pairBytes = 48

func newPairSet(g pairGen, n int) *pairSet {
	ps := &pairSet{buf: make([]byte, 0, n*pairBytes)}
	for i := 0; i < n; i++ {
		ps.buf = append(ps.buf, g.key(uint64(i))...)
		ps.buf = append(ps.buf, g.value(uint64(i))...)
	}
	return ps
}

func (ps *pairSet) key(i uint64) []byte {
	o := int(i) * pairBytes
	return ps.buf[o : o+16 : o+16]
}

func (ps *pairSet) value(i uint64) []byte {
	o := int(i)*pairBytes + 16
	return ps.buf[o : o+32 : o+32]
}

// remoteRig is one running server with its two client connections.
type remoteRig struct {
	srv    *server.Server
	a, b   *remote.Client   // connection A and connection B
	ks     *remote.Keyspace // keyspace "bench" on connection A
	ksB    *remote.Keyspace // keyspace "bench" on connection B
	ingest *remote.Keyspace // remote-mixed's Put target, on connection B
	pairs  *pairSet         // keyspace "bench"
	putGen pairGen          // keyspace "ingest"; put n of caller c is index c<<putCallerShift|n
}

const putCallerShift = 40

func (r *remoteRig) close() {
	r.a.Close()
	r.b.Close()
	r.srv.Close()
}

// remoteSetup is what one set-up measured.
type remoteSetup struct {
	wall        time.Duration
	loadWall    time.Duration
	flushLat    []time.Duration
	virtIngest  time.Duration
	virtCompact time.Duration
	virtWarm    time.Duration
}

// newRemoteRig starts a server, bulk-loads remotePairs pairs, compacts, and
// warms the index cache with one GET per remoteWarmStride-th key. Every
// step is sequential on connection A, so each request is a batch of its own
// and the virtual times measured here do not depend on wall-clock arrival.
func newRemoteRig(o options, pairs *pairSet, mixed bool, res *result) (*remoteRig, *remoteSetup, error) {
	su := &remoteSetup{}
	t0 := time.Now()
	dopts := device.DefaultOptions()
	dopts.Seed = o.seed
	srv := server.NewDevice(dopts, server.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ropts := remote.DefaultOptions()
	ropts.Conns = 1
	// One attempt: a shed, timeout or error is a failed op, not a retry.
	ropts.Retry = client.RetryPolicy{Timeout: 30 * time.Second, MaxAttempts: 1}
	a, err := remote.Dial(addr.String(), ropts)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	b, err := remote.Dial(addr.String(), ropts)
	if err != nil {
		a.Close()
		srv.Close()
		return nil, nil, err
	}
	rig := &remoteRig{srv: srv, a: a, b: b, pairs: pairs, putGen: newPairGen(o.seed, 2)}
	if err := rig.load(o.seed, su, mixed, res); err != nil {
		rig.close()
		return nil, nil, err
	}
	su.wall = time.Since(t0)
	return rig, su, nil
}

func (r *remoteRig) virtNow() (time.Duration, error) {
	st, err := r.a.Stats()
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return time.Duration(st.VirtualNanos), nil
}

func (r *remoteRig) load(seed int64, su *remoteSetup, mixed bool, res *result) error {
	ks, err := r.a.CreateKeyspace("bench")
	if err != nil {
		return err
	}
	r.ks = ks
	if r.ksB, err = r.b.OpenKeyspace("bench"); err != nil {
		return err
	}
	v0, err := r.virtNow()
	if err != nil {
		return err
	}
	// Bulk submissions carry a seeded number of pairs, uniform in
	// [remoteFlushPairs/2, 3*remoteFlushPairs/2).
	sizes := rand.New(rand.NewSource(seed))
	next := uint64(remoteFlushPairs/2 + sizes.Intn(remoteFlushPairs))
	// Every load starts from a collected heap, so collections during it
	// fall at the same points.
	runtime.GC()
	w0 := time.Now()
	for i := uint64(0); i < remotePairs; i++ {
		if err := ks.BulkPut(r.pairs.key(i), r.pairs.value(i)); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if i+1 == next || i+1 == remotePairs {
			f0 := time.Now()
			if err := ks.Flush(); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			su.flushLat = append(su.flushLat, time.Since(f0))
			next += uint64(remoteFlushPairs/2 + sizes.Intn(remoteFlushPairs))
		}
	}
	su.loadWall = time.Since(w0)
	v1, err := r.virtNow()
	if err != nil {
		return err
	}
	su.virtIngest = v1 - v0
	if err := ks.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	v2, err := r.virtNow()
	if err != nil {
		return err
	}
	su.virtCompact = v2 - v1
	for i := uint64(0); i < remotePairs; i += remoteWarmStride {
		val, ok, err := ks.Get(r.pairs.key(i))
		res.attempted++
		if msg := checkGet(val, ok, err, r.pairs.value(i)); msg != "" {
			res.fail("warm-up get %d: %s", i, msg)
		}
	}
	v3, err := r.virtNow()
	if err != nil {
		return err
	}
	su.virtWarm = v3 - v2
	if mixed {
		if r.ingest, err = r.b.CreateKeyspace("ingest"); err != nil {
			return err
		}
	}
	return nil
}

// checkGet returns "" when a GET returned want, else what went wrong.
func checkGet(val []byte, ok bool, err error, want []byte) string {
	switch {
	case err != nil:
		return err.Error()
	case !ok:
		return "key not found"
	case !bytes.Equal(val, want):
		return "wrong value"
	}
	return ""
}

// getRound is one timed round's GETs (and, in remote-mixed, Puts).
type getRound struct {
	wall   time.Duration
	getLat []time.Duration
	putLat []time.Duration
	acked  [][]uint64 // remote-mixed: acknowledged put indices per caller
}

// runGets issues n uniform random GETs from remoteCallers closed-loop callers
// on each of the given keyspace handles (one per connection), checking every
// value.
func (r *remoteRig) runGets(o options, handles []*remote.Keyspace, n int, round int, tr *tracer, parent int, res *result, lat *[]time.Duration) {
	callers := len(handles) * remoteCallers
	per := n / callers
	lats := make([][]time.Duration, callers)
	fails := make([]int64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		ks := handles[c/remoteCallers]
		rng := rand.New(rand.NewSource(o.seed*7_919 + int64(round)*1_000 + int64(c) + 1))
		lats[c] = make([]time.Duration, 0, per)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < per; q++ {
				i := uint64(rng.Int63n(remotePairs))
				key := r.pairs.key(i)
				id := tr.start("remote.Keyspace.Get", "remote", parent, -1)
				t0 := time.Now()
				val, ok, err := ks.Get(key)
				lats[c] = append(lats[c], time.Since(t0))
				tr.end(id, -1)
				if msg := checkGet(val, ok, err, r.pairs.value(i)); msg != "" {
					fails[c]++
					if fails[c] == 1 {
						fmt.Fprintf(os.Stderr, "kvbench: failed op: get %d: %s\n", i, msg)
					}
				}
			}
		}()
	}
	wg.Wait()
	for c := range lats {
		*lat = append(*lat, lats[c]...)
		res.attempted += int64(len(lats[c]))
		res.failed += fails[c]
	}
}

// remoteRound runs one timed round. remote-get spreads the GETs over both
// connections; remote-mixed runs them on connection A while connection B's
// callers Put into the ingest keyspace until the GETs are done.
func (r *remoteRig) remoteRound(o options, mixed bool, round int, tr *tracer, res *result, nextPut []uint64) *getRound {
	gr := &getRound{}
	id := tr.start("round", "bench", -1, -1)
	t0 := time.Now()
	if !mixed {
		r.runGets(o, []*remote.Keyspace{r.ks, r.ksB}, getRoundOps, round, tr, id, res, &gr.getLat)
		gr.wall = time.Since(t0)
		tr.end(id, -1)
		return gr
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	putLats := make([][]time.Duration, remoteCallers)
	gr.acked = make([][]uint64, remoteCallers)
	fails := make([]int64, remoteCallers)
	for c := 0; c < remoteCallers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n := nextPut[c]
				nextPut[c]++
				i := uint64(c)<<putCallerShift | n
				pid := tr.start("remote.Keyspace.Put", "remote", id, -1)
				p0 := time.Now()
				err := r.ingest.Put(r.putGen.key(i), r.putGen.value(i))
				putLats[c] = append(putLats[c], time.Since(p0))
				tr.end(pid, -1)
				if err != nil {
					fails[c]++
					if fails[c] == 1 {
						fmt.Fprintf(os.Stderr, "kvbench: failed op: put %d/%d: %v\n", c, n, err)
					}
					continue
				}
				gr.acked[c] = append(gr.acked[c], n)
			}
		}()
	}
	r.runGets(o, []*remote.Keyspace{r.ks}, mixedRoundOps, round, tr, id, res, &gr.getLat)
	gr.wall = time.Since(t0)
	stop.Store(true)
	wg.Wait()
	for c := range putLats {
		gr.putLat = append(gr.putLat, putLats[c]...)
		res.attempted += int64(len(putLats[c]))
		res.failed += fails[c]
	}
	tr.end(id, -1)
	return gr
}

// readBack compacts the ingest keyspace and scans it back, outside the timed
// phase: every pair must be one the benchmark put, byte for byte, and every
// acknowledged Put must be there. acked[c] lists caller c's acknowledged put
// numbers; written[c] is how many puts caller c issued.
func (r *remoteRig) readBack(acked [][]uint64, written []uint64, res *result) error {
	if err := r.ingest.Compact(); err != nil {
		return fmt.Errorf("compact ingest: %w", err)
	}
	if err := r.ingest.WaitCompacted(); err != nil {
		return fmt.Errorf("compact ingest: %w", err)
	}
	seen := make([][]bool, len(written))
	for c := range seen {
		seen[c] = make([]bool, written[c])
	}
	// Keys lead with a hash byte, so 16 ranges split the scan evenly.
	const ranges = 16
	for b := 0; b < 256; b += 256 / ranges {
		lo := []byte{byte(b)}
		var hi []byte
		if b+256/ranges < 256 {
			hi = []byte{byte(b + 256/ranges)}
		}
		pairs, err := r.ingest.Scan(lo, hi, 0)
		if err != nil {
			return fmt.Errorf("scan ingest: %w", err)
		}
		for _, kv := range pairs {
			if len(kv.Key) != 16 {
				res.fail("read back: key of %d bytes", len(kv.Key))
				continue
			}
			i := binary.BigEndian.Uint64(kv.Key[8:])
			c, n := i>>putCallerShift, i&(1<<putCallerShift-1)
			if c >= uint64(len(seen)) || n >= uint64(len(seen[c])) ||
				!bytes.Equal(kv.Key, r.putGen.key(i)) || !bytes.Equal(kv.Value, r.putGen.value(i)) {
				res.fail("read back: a pair the benchmark did not put")
				continue
			}
			seen[c][n] = true
		}
	}
	for c, list := range acked {
		for _, n := range list {
			res.attempted++
			if !seen[c][n] {
				res.fail("read back: acknowledged put %d/%d is missing", c, n)
			}
		}
	}
	return nil
}

func runRemoteGet(o options) (*result, error)   { return runRemote(o, false) }
func runRemoteMixed(o options) (*result, error) { return runRemote(o, true) }

// runRemote sets up remoteSetups times (keeping the last server) and runs
// timed rounds until the run's seconds are spent. Traced, it sets up once
// and spends half the time untraced and half traced.
func runRemote(o options, mixed bool) (*result, error) {
	res := newResult()
	pairs := newPairSet(newPairGen(o.seed, 1), remotePairs)
	if o.trace {
		return runRemoteTraced(o, pairs, mixed, res)
	}
	var rig *remoteRig
	var setups []*remoteSetup
	for k := 0; k < remoteSetups; k++ {
		if rig != nil {
			rig.close()
			runtime.GC()
		}
		var su *remoteSetup
		var err error
		if rig, su, err = newRemoteRig(o, pairs, mixed, res); err != nil {
			return nil, err
		}
		setups = append(setups, su)
	}
	defer rig.close()
	met0 := rig.srv.Metrics()

	var rounds []*getRound
	nextPut := make([]uint64, remoteCallers)
	acked := make([][]uint64, remoteCallers)
	deadline := time.Now().Add(o.seconds)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		gr := rig.remoteRound(o, mixed, r, nil, res, nextPut)
		for c := range gr.acked {
			acked[c] = append(acked[c], gr.acked[c]...)
		}
		gr.acked = nil
		rounds = append(rounds, gr)
	}
	met1 := rig.srv.Metrics()
	peakRSS := peakRSSMB()
	if shed := met1.Shed - met0.Shed; shed > 0 {
		res.failMany(shed, "%d requests shed", shed)
	}
	if mixed {
		if err := rig.readBack(acked, nextPut, res); err != nil {
			return nil, err
		}
	}

	m := res.values
	m["peak_rss_mb"] = peakRSS
	var setupS, vIngest, vCompact, vWarm []float64
	var loadWall time.Duration
	var flushLat []time.Duration
	for _, su := range setups {
		setupS = append(setupS, su.wall.Seconds())
		loadWall += su.loadWall
		flushLat = append(flushLat, su.flushLat...)
		vIngest = append(vIngest, su.virtIngest.Seconds())
		vCompact = append(vCompact, su.virtCompact.Seconds())
		vWarm = append(vWarm, su.virtWarm.Seconds())
	}
	m["setup_s"] = median(setupS)
	m["virt_ingest_s"] = median(vIngest)
	m["virt_compact_s"] = median(vCompact)
	m["virt_query_s"] = median(vWarm)
	// The gateway's virtual service time per Get over the timed phase.
	g0, g1 := met0.PerOp[wire.OpGet], met1.PerOp[wire.OpGet]
	m["virt_get_us"] = us(g1.Virtual-g0.Virtual) / float64(g1.Count-g0.Count)

	var walls, rates, putRates []float64
	var getLat, putLat []time.Duration
	for _, gr := range rounds {
		walls = append(walls, gr.wall.Seconds())
		rates = append(rates, float64(len(gr.getLat))/gr.wall.Seconds())
		putRates = append(putRates, float64(len(gr.putLat))/gr.wall.Seconds())
		getLat = append(getLat, gr.getLat...)
		putLat = append(putLat, gr.putLat...)
	}
	m["wall_s"] = median(walls)
	m["get_ops_s"] = median(rates)
	m["get_p50_us"] = us(percentile(getLat, 0.50))
	m["get_p999_us"] = us(percentile(getLat, 0.999))
	if mixed {
		m["put_ops_s"] = median(putRates)
		m["put_p50_us"] = us(percentile(putLat, 0.50))
	} else {
		// remote-get has no Puts in its timed phase: its put metrics are
		// the bulk load's, pooled over the set-ups.
		m["put_ops_s"] = float64(remotePairs*len(setups)) / loadWall.Seconds()
		m["put_p50_us"] = us(percentile(flushLat, 0.50))
	}
	return res, nil
}

// windowCounters are the server and process counters read around the traced
// window.
type windowCounters struct {
	met   server.MetricsSnapshot
	stats *wire.StatsReport
	mem   runtime.MemStats
	wall  time.Time
}

func (r *remoteRig) readCounters() (windowCounters, error) {
	var wc windowCounters
	st, err := r.a.Stats()
	if err != nil {
		return wc, fmt.Errorf("stats: %w", err)
	}
	wc.stats = st
	wc.met = r.srv.Metrics()
	runtime.ReadMemStats(&wc.mem)
	wc.wall = time.Now()
	return wc, nil
}

// runRemoteTraced sets up once, runs untraced rounds for half the seconds
// and traced rounds for the other half, and reports per-layer metrics over
// the traced rounds.
func runRemoteTraced(o options, pairs *pairSet, mixed bool, res *result) (*result, error) {
	rig, su, err := newRemoteRig(o, pairs, mixed, res)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	nextPut := make([]uint64, remoteCallers)
	acked := make([][]uint64, remoteCallers)
	half := o.seconds / 2
	var lat []time.Duration // GET latencies of the traced window
	window := func(tr *tracer) (gets int, wall time.Duration) {
		deadline := time.Now().Add(half)
		lat = lat[:0]
		for r := 0; r == 0 || time.Now().Before(deadline); r++ {
			gr := rig.remoteRound(o, mixed, r, tr, res, nextPut)
			gets += len(gr.getLat)
			wall += gr.wall
			lat = append(lat, gr.getLat...)
			for c := range gr.acked {
				acked[c] = append(acked[c], gr.acked[c]...)
			}
		}
		return gets, wall
	}
	shed0 := rig.srv.Metrics().Shed
	plainGets, plainWall := window(nil)
	before, err := rig.readCounters()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gets, wall := window(tr)
	after, err := rig.readCounters()
	if err != nil {
		return nil, err
	}
	if mixed {
		if err := rig.readBack(acked, nextPut, res); err != nil {
			return nil, err
		}
	}

	m := res.values
	g := float64(gets)
	m["trace.overhead"] = (wall.Seconds() / g) / (plainWall.Seconds() / float64(plainGets))
	for layer, ms := range tr.selfWallMs() {
		m["self_ms."+layer] = ms
	}
	m["sim.virt_s_per_wall_s"] = float64(after.stats.VirtualNanos-before.stats.VirtualNanos) / 1e9 / after.wall.Sub(before.wall).Seconds()
	m["go.mallocs_per_get"] = float64(after.mem.Mallocs-before.mem.Mallocs) / g
	m["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["go.gc_cpu_frac"] = after.mem.GCCPUFraction
	m["nvme.cmds_per_get"] = float64(after.stats.Commands-before.stats.Commands) / g
	m["core.media_read_b_per_get"] = float64(after.stats.MediaRead-before.stats.MediaRead) / g
	for _, cp := range after.stats.Compactions {
		if cp.Keyspace == "bench" {
			m["compaction.bytes_moved"] = float64(cp.Progress.BytesMoved)
			m["compaction.host_runs"] = float64(cp.Progress.HostRuns)
			m["compaction.device_runs"] = float64(cp.Progress.DeviceRuns)
		}
	}

	m["get_p99_us"] = us(percentile(lat, 0.99))
	m["remote.get.wall_p999_us"] = us(percentile(lat, 0.999))
	getMean := tr.meanNs("remote.Keyspace.Get", false) / 1e3
	m["remote.get.wall_us"] = getMean
	gb, ga := before.met.PerOp[wire.OpGet], after.met.PerOp[wire.OpGet]
	n := float64(ga.Count - gb.Count)
	decode := us(ga.Decode-gb.Decode) / n
	queue := us(ga.Queue-gb.Queue) / n
	service := us(ga.Service-gb.Service) / n
	write := us(ga.Write-gb.Write) / n
	m["server.get.decode_us"] = decode
	m["server.get.queue_us"] = queue
	m["server.get.service_us"] = service
	m["server.get.write_us"] = write
	m["server.get.virt_us"] = us(ga.Virtual-gb.Virtual) / n
	m["remote.get.transport_us"] = getMean - (decode + queue + service + write)
	// The live histogram keeps samples in recording order (nothing has
	// sorted it), so the window's samples are its tail.
	svc := ga.RealHist.Samples()[gb.RealHist.Count():]
	m["server.get.service_p999_us"] = us(percentile(svc, 0.999))
	if mixed {
		pb, pa := before.met.PerOp[wire.OpPut], after.met.PerOp[wire.OpPut]
		np := float64(pa.Count - pb.Count)
		m["server.put.queue_us"] = us(pa.Queue-pb.Queue) / np
		m["server.put.service_us"] = us(pa.Service-pb.Service) / np
		m["server.put.virt_us"] = us(pa.Virtual-pb.Virtual) / np
		coalesced := float64(after.met.Coalesced - before.met.Coalesced)
		m["server.coalesced_share"] = coalesced / np
		m["server.puts_per_bulk"] = coalesced / float64(after.met.Batches-before.met.Batches)
	}
	shed := after.met.Shed - shed0 // over both windows
	m["session.shed"] = float64(shed)
	if shed > 0 {
		res.failMany(shed, "%d requests shed", shed)
	}

	path, err := tr.write(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl.gz", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "kvbench: wrote %d spans to %s (setup %.3fs)\n", len(tr.spans), path, su.wall.Seconds())
	return res, nil
}
