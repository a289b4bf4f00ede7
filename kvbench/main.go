// Command kvbench is the repository's benchmark: one workload per process,
// measured on both clocks the reproduction has. Wall time is the Go program
// that runs (the sim kernel, the engine's data structures, the TCP gateway);
// virtual time is the modeled KV-CSD device, where the paper's claims live.
//
//	kvbench --workload vpic|remote-get|remote-mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of a traced run, which also writes its spans under .bench_build/kvbench/.
// See README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// outDir holds traces and the determinism record, relative to the checkout.
const outDir = ".bench_build/kvbench"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists every end-to-end metric; each workload reports all of them
// (README.md gives the per-workload definition of each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"wall_s", "s"},
	{"virt_ingest_s", "s"},
	{"virt_compact_s", "s"},
	{"virt_query_s", "s"},
	{"virt_get_us", "us"},
	{"get_ops_s", "1/s"},
	{"get_p50_us", "us"},
	{"get_p999_us", "us"},
	{"put_ops_s", "1/s"},
	{"put_p50_us", "us"},
}

// perLayer lists every per-layer metric of a traced run. A workload that
// bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"self_ms.bench", "ms"},
	{"self_ms.client", "ms"},
	{"self_ms.remote", "ms"},
	{"sim.host_ns_per_virt_us.ingest", "ns/us"},
	{"sim.host_ns_per_virt_us.background", "ns/us"},
	{"sim.host_ns_per_virt_us.query", "ns/us"},
	{"sim.host_ns_per_virt_us.get", "ns/us"},
	{"sim.virt_s_per_wall_s", "s/s"},
	{"go.mallocs_per_get", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"client.get.host_us", "us"},
	{"client.get.virt_us", "us"},
	{"client.get.virt_p50_us", "us"},
	{"client.get.virt_p99_us", "us"},
	{"get_p99_us", "us"},
	{"client.bulkput.virt_us", "us"},
	{"client.query.virt_ms", "ms"},
	{"host.cpu_busy_ms", "ms"},
	{"pcie.h2d_busy_ms", "ms"},
	{"pcie.d2h_busy_ms", "ms"},
	{"nvme.cmds_per_get", "count"},
	{"device.get.queue_us", "us"},
	{"device.get.link_us", "us"},
	{"device.get.service_us", "us"},
	{"device.get.media_us", "us"},
	{"device.get.stage_gap_us", "us"},
	{"core.media_read_b_per_get", "B"},
	{"core.pidx_mib", "MiB"},
	{"core.write_amp", "ratio"},
	{"core.query_media_read_b_per_match", "B"},
	{"compaction.bytes_moved", "B"},
	{"compaction.host_runs", "count"},
	{"compaction.device_runs", "count"},
	{"ssd.channel_busy_ms", "ms"},
	{"ssd.channel_util", "ratio"},
	{"remote.get.wall_us", "us"},
	{"remote.get.wall_p999_us", "us"},
	{"remote.get.transport_us", "us"},
	{"server.get.decode_us", "us"},
	{"server.get.queue_us", "us"},
	{"server.get.service_us", "us"},
	{"server.get.write_us", "us"},
	{"server.get.virt_us", "us"},
	{"server.get.service_p999_us", "us"},
	{"server.put.queue_us", "us"},
	{"server.put.service_us", "us"},
	{"server.put.virt_us", "us"},
	{"server.coalesced_share", "ratio"},
	{"server.puts_per_bulk", "count"},
	{"session.shed", "count"},
}

// result is what one run reports.
type result struct {
	attempted int64
	failed    int64
	problems  []string // correctness failures beyond counted ops
	values    map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail records a failed operation with its cause; the first few causes are
// printed to standard error.
func (r *result) fail(format string, args ...any) { r.failMany(1, format, args...) }

// failMany records n failed operations with one cause.
func (r *result) failMany(n int64, format string, args ...any) {
	if r.failed < 5 {
		fmt.Fprintf(os.Stderr, "kvbench: failed op: "+format+"\n", args...)
	}
	r.failed += n
}

// problem records a correctness failure that is not an operation.
func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "kvbench: "+msg)
	r.problems = append(r.problems, msg)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// render builds the output object. An end-to-end metric a workload failed to
// produce is an error; a per-layer metric it has no value for is 0 (the
// layer was bypassed).
func (r *result) render(trace bool) (output, error) {
	out := output{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var o options
	var secs int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: vpic, remote-get or remote-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "seconds of timed work per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace != 0

	var run func(options) (*result, error)
	switch o.workload {
	case "vpic":
		run = runVPIC
	case "remote-get":
		run = runRemoteGet
	case "remote-mixed":
		run = runRemoteMixed
	default:
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if secs < 1 {
		fmt.Fprintln(os.Stderr, "kvbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kvbench: %s seed %d: peak RSS %.0f MiB\n", o.workload, o.seed, peakRSSMB())
	out, err := res.render(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
