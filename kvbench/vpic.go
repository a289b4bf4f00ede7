package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
	"kvcsd/internal/vpic"
)

// The vpic workload (W1) runs the paper's macro workload in-process: 16
// loader procs bulk-load one VPIC file each, invoke compaction and an
// energy secondary index, and exit; the timed phase then runs energy range
// queries and uniform random point GETs. It is the only source of the
// virtual-clock metrics, which are exact here because nothing in the run
// depends on wall-clock arrival order.
const (
	vpicFiles      = 16
	vpicPerFile    = 65536
	vpicHostCores  = 32
	vpicSortBudget = 4 << 20
	vpicIndexCache = 8 << 20
	vpicGets       = 262144
	vpicGetProcs   = 16
	vpicSetups     = 3
)

var vpicSelectivities = []float64{0.001, 0.01, 0.05}

// vpicRig is one simulated host plus KV-CSD device.
type vpicRig struct {
	env *sim.Env
	h   *host.Host
	dev *device.Device
	st  *stats.IOStats
	cl  *client.Client
}

// newVPICRig sizes the drive the way the repository's benchmark rigs do: 4
// MiB zones, enough of them for eight times the data.
func newVPICRig(seed int64, dataBytes int64, traceDevice bool) *vpicRig {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	hcfg := host.DefaultHostConfig()
	hcfg.Cores = vpicHostCores
	h := host.New(env, hcfg)
	opts := device.DefaultOptions()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 4 << 20
	scfg.NumZones = int(dataBytes*2*8/scfg.ZoneSize) + 512
	if scfg.NumZones < 2048 {
		scfg.NumZones = 2048
	}
	opts.SSD = scfg
	opts.Engine.SortBudgetBytes = vpicSortBudget
	opts.Engine.IndexCacheBytes = vpicIndexCache
	opts.Seed = seed
	opts.Trace = traceDevice
	dev := device.New(env, opts, st)
	return &vpicRig{env: env, h: h, dev: dev, st: st, cl: client.New(h, dev)}
}

// vpicExpect is the ground truth the run checks answers against.
type vpicExpect struct {
	ds *vpic.Dataset
	// match[s][f] maps the key of every particle of file f whose energy
	// meets selectivity s's bound to its index in the file.
	match [][]map[string]int
}

func newVPICExpect(ds *vpic.Dataset) *vpicExpect {
	e := &vpicExpect{ds: ds, match: make([][]map[string]int, len(vpicSelectivities))}
	for s, sel := range vpicSelectivities {
		t := vpic.EnergyThreshold(sel)
		e.match[s] = make([]map[string]int, len(ds.Files))
		for f := range ds.Files {
			m := map[string]int{}
			for i := range ds.Files[f].Particles {
				pt := &ds.Files[f].Particles[i]
				// The query's lower bound is inclusive.
				if pt.Energy() >= t {
					m[string(pt.Key())] = i
				}
			}
			e.match[s][f] = m
		}
	}
	return e
}

// vpicVirt is the five virtual-clock metrics; they must repeat exactly for a
// seed.
type vpicVirt struct {
	IngestNs  int64 `json:"ingest_ns"`
	CompactNs int64 `json:"compact_ns"`
	QueryNs   int64 `json:"query_ns"`
	GetSumNs  int64 `json:"get_sum_ns"`
	GetP50Ns  int64 `json:"get_p50_ns"`
	GetP99Ns  int64 `json:"get_p99_ns"`
}

// vpicRound is one timed round: the three energy queries, then the GETs.
type vpicRound struct {
	wall      time.Duration
	getWall   time.Duration
	getLat    []time.Duration // wall per Get call
	virtGet   []time.Duration // virtual per Get call
	virtQuery time.Duration
	matches   int64
	// Counter deltas over the phases (per-layer metrics; the Go runtime's
	// only in traced passes).
	queryMediaRead int64
	getMediaRead   int64
	getCmds        int64
	getMallocs     uint64
	getGCs         uint32
	getVirt        time.Duration
	queryWall      time.Duration
}

// vpicPass is one setup of a fresh rig plus its timed rounds.
type vpicPass struct {
	setupWall   time.Duration
	ingestWall  time.Duration
	bgWall      time.Duration
	virtIngest  time.Duration
	virtBg      time.Duration
	putP50      time.Duration // median wall time of a BulkPut call that submits
	bulkPutVirt time.Duration // summed virtual time of BulkPut calls
	rounds      []*vpicRound
	peakRSS     float64 // peak RSS of the process by the end of the last round, MiB
	virtFirst   vpicVirt

	// Counters at the end of the pass (per-layer metrics).
	cpuBusy, h2dBusy, d2hBusy, chanBusy time.Duration
	channels                            int
	virtEnd                             time.Duration
	setupMediaWrite, setupAppWrite      int64
	bytesMoved                          uint64
	hostRuns, deviceRuns                int64
	pidxBytes                           int64 // primary index on media, all keyspaces
	getStages                           []map[string]time.Duration
}

// runVPICPass builds a rig, loads it, waits for compaction and indexing,
// then runs timed rounds while more(r) holds for the round index r.
func runVPICPass(o options, exp *vpicExpect, res *result, tr *tracer, traceDevice bool, more func(r int) bool) (*vpicPass, error) {
	ds := exp.ds
	pass := &vpicPass{}
	t0 := time.Now()
	rig := newVPICRig(o.seed, int64(ds.TotalParticles())*vpic.ParticleSize, traceDevice)
	var runErr error
	rig.env.Go("bench", func(p *sim.Proc) {
		runErr = vpicMaster(p, rig, o, exp, res, tr, pass, t0, more)
		rig.dev.Shutdown()
	})
	rig.env.Run()
	if runErr != nil {
		return nil, runErr
	}
	pass.cpuBusy = rig.h.CPU().BusyTime()
	pass.h2dBusy = rig.dev.Link().BusyH2D()
	pass.d2hBusy = rig.dev.Link().BusyD2H()
	pass.chanBusy = rig.dev.SSD().ChannelBusyTime()
	pass.channels = rig.dev.SSD().ChannelCount()
	pass.virtEnd = time.Duration(rig.env.Now())
	eng := rig.dev.Engine()
	for f := range ds.Files {
		n, err := eng.ExtentCount(fmt.Sprintf("particles-%d", f), core.ExtentPIDX, "")
		if err != nil {
			return nil, fmt.Errorf("pidx size: %w", err)
		}
		pass.pidxBytes += n * int64(eng.Config().BlockBytes)
	}
	for _, pr := range eng.Progresses() {
		pass.bytesMoved += pr.Progress.BytesMoved
		pass.hostRuns += int64(pr.Progress.HostRuns)
		pass.deviceRuns += int64(pr.Progress.DeviceRuns)
	}
	if traceDevice && len(pass.rounds) > 0 {
		// Every Get is one Retrieve command; its root span's stages
		// partition the command's latency.
		for _, s := range rig.dev.Tracer().Finished() {
			if s.IsRoot() && s.Name() == "cmd:Retrieve" {
				pass.getStages = append(pass.getStages, s.Stages())
			}
		}
	}
	return pass, nil
}

func vpicMaster(p *sim.Proc, rig *vpicRig, o options, exp *vpicExpect, res *result, tr *tracer, pass *vpicPass, t0 time.Time, more func(int) bool) error {
	ds := exp.ds
	now := func() int64 { return int64(p.Now()) }

	// Load: one loader proc and keyspace per file.
	setupSpan := tr.start("setup", "bench", -1, now())
	ingestSpan := tr.start("ingest", "bench", setupSpan, now())
	w0, v0 := time.Now(), p.Now()
	handles := make([]*client.Keyspace, len(ds.Files))
	errs := make([]error, len(ds.Files))
	putLat := make([][]time.Duration, len(ds.Files))
	bulkVirt := make([]time.Duration, len(ds.Files))
	var loaders []*sim.Proc
	for f := range ds.Files {
		f := f
		loaders = append(loaders, rig.env.Go(fmt.Sprintf("loader-%d", f), func(lp *sim.Proc) {
			errs[f] = vpicLoad(lp, rig.cl, tr, ingestSpan, &ds.Files[f], &handles[f], &putLat[f], &bulkVirt[f])
		}))
	}
	p.Join(loaders...)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	pass.virtIngest = time.Duration(p.Now() - v0)
	pass.ingestWall = time.Since(w0)
	tr.end(ingestSpan, now())
	var allPutLat []time.Duration
	for f := range putLat {
		allPutLat = append(allPutLat, putLat[f]...)
		pass.bulkPutVirt += bulkVirt[f]
	}
	pass.putP50 = percentile(allPutLat, 0.50)

	// Background: the device compacts and builds the energy index.
	bgSpan := tr.start("background", "bench", setupSpan, now())
	w1, v1 := time.Now(), p.Now()
	for _, ks := range handles {
		id := tr.start("client.Keyspace.WaitCompacted", "client", bgSpan, now())
		err := ks.WaitCompacted(p)
		tr.end(id, now())
		if err != nil {
			return fmt.Errorf("wait compacted: %w", err)
		}
		id = tr.start("client.Keyspace.WaitIndexBuilt", "client", bgSpan, now())
		err = ks.WaitIndexBuilt(p, "energy")
		tr.end(id, now())
		if err != nil {
			return fmt.Errorf("wait index: %w", err)
		}
	}
	pass.virtBg = time.Duration(p.Now() - v1)
	pass.bgWall = time.Since(w1)
	tr.end(bgSpan, now())
	tr.end(setupSpan, now())
	pass.setupWall = time.Since(t0)
	pass.setupMediaWrite = rig.st.MediaWrite.Value()
	pass.setupAppWrite = rig.st.AppWrite.Value()

	for r := 0; more(r); r++ {
		round, err := vpicTimedRound(p, rig, o, exp, res, tr, handles, r)
		if err != nil {
			return err
		}
		pass.peakRSS = peakRSSMB()
		pass.rounds = append(pass.rounds, round)
		if r == 0 {
			lat := append([]time.Duration(nil), round.virtGet...)
			var sum time.Duration
			for _, d := range lat {
				sum += d
			}
			pass.virtFirst = vpicVirt{
				IngestNs:  int64(pass.virtIngest),
				CompactNs: int64(pass.virtBg),
				QueryNs:   int64(round.virtQuery),
				GetSumNs:  int64(sum),
				GetP50Ns:  int64(percentile(lat, 0.50)),
				GetP99Ns:  int64(percentile(lat, 0.99)),
			}
		}
	}
	return nil
}

// vpicLoad is one loader: create the keyspace, bulk-put the file, then
// invoke compaction and the energy index build, which run in the device.
func vpicLoad(lp *sim.Proc, cl *client.Client, tr *tracer, parent int, file *vpic.File, out **client.Keyspace, lat *[]time.Duration, virt *time.Duration) error {
	now := func() int64 { return int64(lp.Now()) }
	id := tr.start("client.CreateKeyspace", "client", parent, now())
	ks, err := cl.CreateKeyspace(lp, fmt.Sprintf("particles-%d", file.Index))
	tr.end(id, now())
	if err != nil {
		return err
	}
	*out = ks
	for j := range file.Particles {
		pt := &file.Particles[j]
		key := pt.Key()
		id := tr.start("client.Keyspace.BulkPut", "client", parent, now())
		v0, w0 := lp.Now(), time.Now()
		err := ks.BulkPut(lp, key, pt.Payload[:])
		w := time.Since(w0)
		if v := time.Duration(lp.Now() - v0); v > 0 {
			// Most calls only stage the pair; this one shipped the staged
			// bulk message to the device and waited for it.
			*lat = append(*lat, w)
			*virt += v
		}
		tr.end(id, now())
		if err != nil {
			return err
		}
	}
	id = tr.start("client.Keyspace.Compact", "client", parent, now())
	err = ks.Compact(lp)
	tr.end(id, now())
	if err != nil {
		return err
	}
	id = tr.start("client.Keyspace.BuildSecondaryIndex", "client", parent, now())
	err = ks.BuildSecondaryIndex(lp, client.IndexSpec{
		Name: "energy", Offset: vpic.EnergyOffset, Length: 4, Type: keyenc.TypeFloat32,
	})
	tr.end(id, now())
	return err
}

// vpicTimedRound runs the three energy queries (16 procs, one per
// keyspace) and then vpicGets uniform random GETs from vpicGetProcs procs,
// checking every answer.
func vpicTimedRound(p *sim.Proc, rig *vpicRig, o options, exp *vpicExpect, res *result, tr *tracer, handles []*client.Keyspace, r int) (*vpicRound, error) {
	ds := exp.ds
	round := &vpicRound{}
	now := func() int64 { return int64(p.Now()) }
	roundSpan := tr.start("round", "bench", -1, now())
	w0 := time.Now()

	querySpan := tr.start("query", "bench", roundSpan, now())
	mr0 := rig.st.MediaRead.Value()
	for s, sel := range vpicSelectivities {
		lo := keyenc.PutFloat32(vpic.EnergyThreshold(sel))
		q0 := p.Now()
		var procs []*sim.Proc
		for f, ks := range handles {
			f, ks, s := f, ks, s
			procs = append(procs, rig.env.Go(fmt.Sprintf("query-%d", f), func(qp *sim.Proc) {
				id := tr.start("client.Keyspace.QuerySecondaryRange", "client", querySpan, int64(qp.Now()))
				pairs, err := ks.QuerySecondaryRange(qp, "energy", lo, nil, 0)
				tr.end(id, int64(qp.Now()))
				res.attempted++
				if err != nil {
					res.fail("query %.3f file %d: %v", sel, f, err)
					return
				}
				if msg := checkQuery(pairs, exp.match[s][f], &ds.Files[f]); msg != "" {
					res.fail("query %.3f file %d: %s", sel, f, msg)
					return
				}
				round.matches += int64(len(pairs))
			}))
		}
		p.Join(procs...)
		round.virtQuery += time.Duration(p.Now() - q0)
	}
	round.queryMediaRead = rig.st.MediaRead.Value() - mr0
	round.queryWall = time.Since(w0)
	tr.end(querySpan, now())

	getSpan := tr.start("get", "bench", roundSpan, now())
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	mr0, c0, gv0 := rig.st.MediaRead.Value(), rig.dev.Queue().Completed(), p.Now()
	g0 := time.Now()
	per := vpicGets / vpicGetProcs
	lat := make([][]time.Duration, vpicGetProcs)
	virt := make([][]time.Duration, vpicGetProcs)
	var procs []*sim.Proc
	for g := 0; g < vpicGetProcs; g++ {
		g := g
		rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(r)*vpicGetProcs + int64(g) + 1))
		lat[g] = make([]time.Duration, 0, per)
		virt[g] = make([]time.Duration, 0, per)
		procs = append(procs, rig.env.Go(fmt.Sprintf("get-%d", g), func(gp *sim.Proc) {
			for n := 0; n < per; n++ {
				f := rng.Intn(len(ds.Files))
				pt := &ds.Files[f].Particles[rng.Intn(len(ds.Files[f].Particles))]
				key := pt.Key()
				id := tr.start("client.Keyspace.Get", "client", getSpan, int64(gp.Now()))
				v0, w0 := gp.Now(), time.Now()
				val, ok, err := handles[f].Get(gp, key)
				lat[g] = append(lat[g], time.Since(w0))
				virt[g] = append(virt[g], time.Duration(gp.Now()-v0))
				tr.end(id, int64(gp.Now()))
				res.attempted++
				switch {
				case err != nil:
					res.fail("get file %d: %v", f, err)
				case !ok:
					res.fail("get file %d: key not found", f)
				case !bytes.Equal(val, pt.Payload[:]):
					res.fail("get file %d: wrong value", f)
				}
			}
		}))
	}
	p.Join(procs...)
	round.getWall = time.Since(g0)
	round.getVirt = time.Duration(p.Now() - gv0)
	round.getMediaRead = rig.st.MediaRead.Value() - mr0
	round.getCmds = rig.dev.Queue().Completed() - c0
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		round.getMallocs = ms1.Mallocs - ms0.Mallocs
		round.getGCs = ms1.NumGC - ms0.NumGC
	}
	tr.end(getSpan, now())
	for g := range lat {
		round.getLat = append(round.getLat, lat[g]...)
		round.virtGet = append(round.virtGet, virt[g]...)
	}
	round.wall = time.Since(w0)
	tr.end(roundSpan, now())
	return round, nil
}

// checkQuery compares one keyspace's query answer with the particles a scan
// of the generated file selects: same count, no duplicates, and each pair
// byte-identical to its particle. It returns "" when they agree.
func checkQuery(pairs []nvme.KVPair, want map[string]int, file *vpic.File) string {
	if len(pairs) != len(want) {
		return fmt.Sprintf("%d matches, want %d", len(pairs), len(want))
	}
	seen := make(map[int]bool, len(pairs))
	for _, kv := range pairs {
		i, ok := want[string(kv.Key)]
		if !ok {
			return "a returned particle does not meet the bound"
		}
		if seen[i] {
			return "a particle is returned twice"
		}
		seen[i] = true
		if !bytes.Equal(kv.Value, file.Particles[i].Payload[:]) {
			return "a returned particle has the wrong payload"
		}
	}
	return ""
}

// runVPIC is the vpic workload. Untraced, it sets up vpicSetups times
// (reporting the median setup) and runs timed rounds on the last rig until
// the run's seconds are spent. Traced, it runs one untraced and one traced
// pass of one round each; their virtual metrics must agree exactly.
func runVPIC(o options) (*result, error) {
	res := newResult()
	ds := vpic.Generate(o.seed, vpicFiles, vpicPerFile)
	exp := newVPICExpect(ds)
	if o.trace {
		return runVPICTraced(o, exp, res)
	}

	var passes []*vpicPass
	for k := 0; k < vpicSetups; k++ {
		runtime.GC()
		timed := k == vpicSetups-1
		var deadline time.Time
		more := func(r int) bool {
			if !timed {
				return false
			}
			if r == 0 {
				deadline = time.Now().Add(o.seconds)
				return true
			}
			return time.Now().Before(deadline)
		}
		pass, err := runVPICPass(o, exp, res, nil, false, more)
		if err != nil {
			return nil, err
		}
		if k > 0 && (pass.virtIngest != passes[0].virtIngest || pass.virtBg != passes[0].virtBg) {
			res.problem("setup %d virtual times differ from setup 0: ingest %v vs %v, background %v vs %v",
				k, pass.virtIngest, passes[0].virtIngest, pass.virtBg, passes[0].virtBg)
		}
		passes = append(passes, pass)
	}

	var setups, putRates, putP50s []float64
	for _, ps := range passes {
		setups = append(setups, ps.setupWall.Seconds())
		putRates = append(putRates, float64(vpicFiles*vpicPerFile)/ps.ingestWall.Seconds())
		putP50s = append(putP50s, us(ps.putP50))
	}
	last := passes[len(passes)-1]
	res.values["peak_rss_mb"] = last.peakRSS
	res.values["setup_s"] = median(setups)
	res.values["put_ops_s"] = median(putRates)
	res.values["put_p50_us"] = median(putP50s)

	var walls, rates []float64
	var lat []time.Duration
	for _, rd := range last.rounds {
		walls = append(walls, rd.wall.Seconds())
		rates = append(rates, float64(len(rd.getLat))/rd.getWall.Seconds())
		lat = append(lat, rd.getLat...)
	}
	res.values["wall_s"] = median(walls)
	res.values["get_ops_s"] = median(rates)
	res.values["get_p50_us"] = us(percentile(lat, 0.50))
	res.values["get_p999_us"] = us(percentile(lat, 0.999))
	v := last.virtFirst
	res.values["virt_ingest_s"] = float64(v.IngestNs) / 1e9
	res.values["virt_compact_s"] = float64(v.CompactNs) / 1e9
	res.values["virt_query_s"] = float64(v.QueryNs) / 1e9
	res.values["virt_get_us"] = float64(v.GetSumNs) / 1e3 / vpicGets
	checkDeterminism(res, o, v)
	return res, nil
}

// runVPICTraced runs one untraced and one traced pass of one round each and
// reports the per-layer metrics of the traced pass.
func runVPICTraced(o options, exp *vpicExpect, res *result) (*result, error) {
	once := func(r int) bool { return r == 0 }
	plain, err := runVPICPass(o, exp, res, nil, false, once)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	pass, err := runVPICPass(o, exp, res, tr, true, once)
	if err != nil {
		return nil, err
	}
	if plain.virtFirst != pass.virtFirst {
		res.problem("virtual metrics differ between the untraced and the traced pass: %+v vs %+v", plain.virtFirst, pass.virtFirst)
	}
	checkDeterminism(res, o, pass.virtFirst)

	rd := pass.rounds[0]
	gets := float64(len(rd.getLat))
	m := res.values
	m["trace.overhead"] = rd.wall.Seconds() / plain.rounds[0].wall.Seconds()
	for layer, ms := range tr.selfWallMs() {
		m["self_ms."+layer] = ms
	}
	m["sim.host_ns_per_virt_us.ingest"] = float64(pass.ingestWall) / us(pass.virtIngest)
	m["sim.host_ns_per_virt_us.background"] = float64(pass.bgWall) / us(pass.virtBg)
	m["sim.host_ns_per_virt_us.query"] = float64(rd.queryWall) / us(rd.virtQuery)
	m["sim.host_ns_per_virt_us.get"] = float64(rd.getWall) / us(rd.getVirt)
	m["go.mallocs_per_get"] = float64(rd.getMallocs) / gets
	m["go.gc_cycles"] = float64(rd.getGCs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.gc_cpu_frac"] = ms.GCCPUFraction

	var hostSum, virtSum time.Duration
	for i := range rd.getLat {
		hostSum += rd.getLat[i]
		virtSum += rd.virtGet[i]
	}
	getVirtUs := us(virtSum) / gets
	m["client.get.host_us"] = us(hostSum) / gets
	m["client.get.virt_us"] = getVirtUs
	m["client.get.virt_p50_us"] = float64(pass.virtFirst.GetP50Ns) / 1e3
	m["client.get.virt_p99_us"] = float64(pass.virtFirst.GetP99Ns) / 1e3
	m["get_p99_us"] = us(percentile(rd.getLat, 0.99))
	m["client.bulkput.virt_us"] = us(pass.bulkPutVirt) / float64(vpicFiles*vpicPerFile)
	m["client.query.virt_ms"] = tr.meanNs("client.Keyspace.QuerySecondaryRange", true) / 1e6
	m["host.cpu_busy_ms"] = msec(pass.cpuBusy)
	m["pcie.h2d_busy_ms"] = msec(pass.h2dBusy)
	m["pcie.d2h_busy_ms"] = msec(pass.d2hBusy)
	m["nvme.cmds_per_get"] = float64(rd.getCmds) / gets

	if len(pass.getStages) != len(rd.getLat) {
		res.problem("device tracer saw %d Retrieve commands for %d GETs", len(pass.getStages), len(rd.getLat))
	}
	stages := stageMeans(pass.getStages, []string{obs.StageQueue, obs.StageLink, obs.StageService, obs.StageMedia})
	var stageSum float64
	for name, ns := range stages {
		m["device.get."+name+"_us"] = ns / 1e3
		stageSum += ns / 1e3
	}
	m["device.get.stage_gap_us"] = getVirtUs - stageSum
	if d := getVirtUs - stageSum; d > 0.01*getVirtUs || d < -0.01*getVirtUs {
		res.problem("device stage means sum to %.3f us, client.get.virt_us is %.3f us", stageSum, getVirtUs)
	}

	m["core.media_read_b_per_get"] = float64(rd.getMediaRead) / gets
	m["core.pidx_mib"] = float64(pass.pidxBytes) / (1 << 20)
	m["core.write_amp"] = float64(pass.setupMediaWrite) / float64(pass.setupAppWrite)
	m["core.query_media_read_b_per_match"] = float64(rd.queryMediaRead) / float64(rd.matches)
	m["compaction.bytes_moved"] = float64(pass.bytesMoved)
	m["compaction.host_runs"] = float64(pass.hostRuns)
	m["compaction.device_runs"] = float64(pass.deviceRuns)
	m["ssd.channel_busy_ms"] = msec(pass.chanBusy)
	m["ssd.channel_util"] = float64(pass.chanBusy) / (float64(pass.channels) * float64(pass.virtEnd))

	path, err := tr.write(outDir, fmt.Sprintf("trace-vpic-seed%d.jsonl.gz", o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "kvbench: wrote %d spans to %s\n", len(tr.spans), path)
	return res, nil
}

// msec converts a duration to milliseconds.
func msec(d time.Duration) float64 { return float64(d) / 1e6 }

// checkDeterminism compares the run's virtual metrics with the first run
// recorded for this seed in this checkout, and records them if there is
// none. Virtual time must not depend on anything but the seed.
func checkDeterminism(res *result, o options, v vpicVirt) {
	dir := filepath.Join(outDir, "virt")
	path := filepath.Join(dir, fmt.Sprintf("vpic-seed%d.json", o.seed))
	if data, err := os.ReadFile(path); err == nil {
		var want vpicVirt
		if err := json.Unmarshal(data, &want); err != nil {
			res.problem("read %s: %v", path, err)
			return
		}
		if want != v {
			res.problem("virtual metrics differ from an earlier run at seed %d: %+v, earlier %+v", o.seed, v, want)
		}
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		res.problem("record virtual metrics: %v", err)
	}
}
