// Command perfbench is PivotE's end-to-end load benchmark. It builds
// on the real cmd/pivote binary: for each workload it starts that
// workload's process shape on localhost, drives it with closed-loop
// exploration sessions over at most two connections, checks every
// answer, and prints the end-to-end metrics. With --trace 1 it runs the
// same workload twice — a short untraced pass against the binary, then
// the same shape hosted in-process with spans around every layer entry
// point — and prints the per-layer breakdown instead.
//
// Run it from the repository root through run.sh, which builds both
// binaries:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pivote/internal/apidto"
	"pivote/internal/core"
)

// workload is one traffic mix against one process shape.
type workload struct {
	name   string
	scale  int
	live   bool // -live single server with a paced writer
	routed bool // -router in front of two -shard-of nodes
}

var workloads = []workload{
	{name: "explore", scale: 2000},
	{name: "explore-routed", scale: 2000, routed: true},
	{name: "long-session-live", scale: 10000, live: true},
}

// setupRepeats is how many times a run launches its shape. Each launch
// is warmed up for warmup and then measured for an equal share of the
// window.
const (
	setupRepeats = 4
	warmup       = 500 * time.Millisecond
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's figures and prints them.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-28s %14.4f %-6s n=%d", name, v, unit, n)
	if note != "" {
		line += "  " + note
	}
	r.notes = append(r.notes, line)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print() error {
	out, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: explore, explore-routed or long-session-live")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same sessions and batches")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	bin := flag.String("pivote", "", "path of the built cmd/pivote binary")
	work := flag.String("workdir", ".bench_build", "directory for process logs and span dumps")
	flag.Parse()

	// The load process stays small next to the servers it measures.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(400)

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -pivote BIN --workload explore|explore-routed|long-session-live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	logDir := *work + "/logs"
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// No signal handling: an interrupted benchmark dies at once, and
	// every server it started dies with it (Pdeathsig, see start).
	ctx := context.Background()

	cfg := runConfig{w: *w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, logDir: logDir, workDir: *work}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(ctx, cfg)
	} else {
		rep, err = runEndToEnd(ctx, cfg)
	}
	if err == nil {
		err = rep.print()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	bin     string
	logDir  string
	workDir string
}

// makePlan generates the reference graph and computes every request
// of the run (and its expected answer) before anything is timed.
func makePlan(cfg runConfig) (*plan, error) {
	res := genGraph(cfg.w.scale)
	if cfg.w.live {
		return livePlan(res, cfg.seed)
	}
	return explorePlan(res, cfg.seed, exploreSessions)
}

// launchRun is what one launch of the shape measured.
type launchRun struct {
	setup  float64 // seconds until every process answered /api/v1/live
	window time.Duration
	stats  *clientStats
	cpuMs  map[string]float64 // by role, over the window
	rssMiB map[string]float64 // by role, peak
	deltas series             // program counters over the window, summed over processes
}

// realRun is what the launches against the real binary measured.
type realRun struct {
	launches []*launchRun
	stats    *clientStats // every launch's clients, merged
	window   time.Duration
	cpuMs    map[string]float64 // by role, summed over launches
	rssMiB   map[string]float64 // by role, highest launch
	deltas   series             // summed over launches
}

// measureReal launches the shape n times and drives each launch for
// perLaunch. The figures are medians over launches: a fresh set of
// processes can run several percent faster or slower than the last on a
// shared host, and one launch would carry that whole difference.
func measureReal(ctx context.Context, cfg runConfig, p *plan, n int, perLaunch time.Duration) (*realRun, error) {
	rr := &realRun{stats: &clientStats{}, cpuMs: map[string]float64{}, rssMiB: map[string]float64{}, deltas: series{}}
	next := []int{0, 1} // each explorer's next session, carried across launches
	for i := 0; i < n; i++ {
		lr, err := measureLaunch(ctx, cfg, p, perLaunch, next, i == n-1)
		if err != nil {
			return nil, err
		}
		rr.launches = append(rr.launches, lr)
		rr.stats.merge(lr.stats)
		rr.window += lr.window
		rr.deltas.add(lr.deltas)
		for role, v := range lr.cpuMs {
			rr.cpuMs[role] += v
			rr.rssMiB[role] = math.Max(rr.rssMiB[role], lr.rssMiB[role])
		}
	}
	return rr, nil
}

func measureLaunch(ctx context.Context, cfg runConfig, p *plan, window time.Duration, next []int, last bool) (*launchRun, error) {
	sh, d, err := launch(ctx, cfg.w, cfg.bin, cfg.logDir)
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", cfg.w.name, err)
	}
	defer sh.stop()
	lr := &launchRun{setup: d.Seconds(), cpuMs: map[string]float64{}, rssMiB: map[string]float64{}}
	ctl := connClient()
	scrapeAll := func() (series, error) {
		all := series{}
		for _, pr := range sh.procs {
			s, err := scrape(ctl, pr.base)
			if err != nil {
				return nil, err
			}
			all.add(s)
		}
		return all, nil
	}
	// Warm up the fresh processes (heap growth, caches, connections) on
	// sessions from the other half of the pool, then measure.
	warm := len(p.sessions) / 2
	sessionLoop(connClient(), sh.entry, p.sessions, &warm, 1, time.Now().Add(warmup), nil)
	before, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	s0, err := sh.sample()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	lr.stats = drive(cfg.w, p, sh.entry, t0.Add(window), next, nil, httpSend(connClient(), sh.entry))
	lr.window = time.Since(t0)
	// Read each process's /proc figures before anything stops it.
	s1, err := sh.sample()
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	lr.deltas = delta(before, after)
	for i, pr := range sh.procs {
		lr.cpuMs[pr.role] += s1[i].cpuMs - s0[i].cpuMs
		lr.rssMiB[pr.role] += float64(s1[i].hwmKiB) / 1024
	}
	if cfg.w.live && last {
		probeLive(ctl, sh.entry, p, lr.stats)
	}
	return lr, nil
}

func (lr *launchRun) rate() float64 {
	return ratio(float64(lr.stats.sessionReqs), lr.window.Seconds())
}

// cpuPerOp is the servers' CPU (ms) per completed session request.
func (lr *launchRun) cpuPerOp() float64 {
	t := 0.0
	for _, v := range lr.cpuMs {
		t += v
	}
	return mean(t, lr.stats.sessionReqs)
}

// perLaunch returns the median over launches of f.
func (rr *realRun) perLaunch(f func(*launchRun) float64) float64 {
	var xs []float64
	for _, lr := range rr.launches {
		xs = append(xs, f(lr))
	}
	return median(xs)
}

// drive runs the workload's clients until the deadline: two session
// loops, or for long-session-live one session loop plus the paced
// writer. Each holds one connection.
func drive(w workload, p *plan, entry string, deadline time.Time, next []int, tr *tracer, send func(*request) error) *clientStats {
	out := make([]*clientStats, 2)
	done := make(chan struct{}, 2)
	go func() {
		stride := 2
		if w.live {
			stride = 1
		}
		out[0] = sessionLoop(connClient(), entry, p.sessions, &next[0], stride, deadline, tr)
		done <- struct{}{}
	}()
	go func() {
		if w.live {
			out[1] = writerLoop(p.batches, deadline, send)
		} else {
			out[1] = sessionLoop(connClient(), entry, p.sessions, &next[1], 2, deadline, tr)
		}
		done <- struct{}{}
	}()
	<-done
	<-done
	out[0].merge(out[1])
	return out[0]
}

// probeLive forces a compaction and requires a search to find a film
// the writer ingested.
func probeLive(c *http.Client, entry string, p *plan, cs *clientStats) {
	cs.attempted++
	compact := request{kind: kindIngest, method: http.MethodPost, path: "/api/v1/compact"}
	status, body, _, _, err := exchange(c, entry, &compact, "", nil)
	if err == nil {
		err = check(&compact, status, body)
	}
	if err != nil {
		cs.fail("post-run compaction: %v", err)
		return
	}
	cs.attempted++
	if err := probeSearch(c, entry, p); err != nil {
		cs.fail("post-run search: %v", err)
	}
}

// probeSearch submits the probe keywords in a fresh session and
// requires the ingested film among the hits.
func probeSearch(c *http.Client, entry string, p *plan) error {
	probe := request{kind: kindOp, method: http.MethodPost, path: "/api/v1/ops?include=entities",
		body: opsBody(core.OpDTO{Op: "submit", Keywords: p.probeKeywords})}
	status, body, _, _, err := exchange(c, entry, &probe, "", nil)
	if err != nil {
		return err
	}
	var or apidto.OpsResponse
	if status != http.StatusOK || json.Unmarshal(body, &or) != nil {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	for _, e := range or.State.Entities {
		if e.Name == p.probeName {
			return nil
		}
	}
	return fmt.Errorf("%q not among the %d hits for %q", p.probeName, len(or.State.Entities), p.probeKeywords)
}

func runEndToEnd(ctx context.Context, cfg runConfig) (*report, error) {
	t0 := time.Now()
	p, err := makePlan(cfg)
	if err != nil {
		return nil, err
	}
	planned := time.Since(t0)
	runtime.GC()
	rr, err := measureReal(ctx, cfg, p, setupRepeats, cfg.seconds/setupRepeats)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	cs := rr.stats
	n := cs.sessionReqs
	k := len(rr.launches)
	rep.notef("workload %s seed %d: %d session requests in %.3f s over %d launches, closed loop, 2 connections; inputs planned in %.1f s",
		cfg.w.name, cfg.seed, n, rr.window.Seconds(), k, planned.Seconds())
	// The timing figures come from the fastest launch, the one that
	// completed the most session requests per second: contention from
	// the shared host (CPU steal, noisy neighbours) only ever slows a
	// launch down, and it comes and goes over tens of seconds, so the
	// fastest of several launches is the steadiest estimate of the
	// program's own speed.
	best := rr.launches[0]
	var rates, cpus []string
	for _, lr := range rr.launches {
		if lr.rate() > best.rate() {
			best = lr
		}
		rates = append(rates, fmt.Sprintf("%.1f", lr.rate()))
		cpus = append(cpus, fmt.Sprintf("%.3f", lr.cpuPerOp()))
	}
	rep.notef("per launch: ops/s %v, cpu ms/op %v", rates, cpus)
	bn := best.stats.sessionReqs
	bestNote := fmt.Sprintf("(fastest of %d launches)", k)
	p50, tailP, tail := best.stats.lat.summary(99)
	rep.set("ops_per_s", best.rate(), "ops/s", bn, bestNote)
	rep.set("op_p50_ms", p50, "ms", bn, bestNote)
	rep.set("op_p99_ms", tail, "ms", bn, fmt.Sprintf("(p%g, %d samples beyond it; fastest of %d launches)",
		tailP, int(float64(bn)*(100-tailP)/100), k))
	rep.set("cpu_ms_per_op", best.cpuPerOp(), "ms", bn, fmt.Sprintf("(%d processes, /proc utime+stime; fastest of %d launches)", len(best.cpuMs), k))
	rep.set("resp_kb_per_op", mean(cs.bodyBytes/1024, n), "KiB", n, "(all launches)")
	rep.set("rss_mb", rr.perLaunch(func(lr *launchRun) float64 {
		t := 0.0
		for _, v := range lr.rssMiB {
			t += v
		}
		return t
	}), "MiB", k, fmt.Sprintf("(sum of VmHWM over the processes; median of %d launches)", k))
	rep.set("setup_s", rr.perLaunch(func(lr *launchRun) float64 { return lr.setup }), "s", k,
		fmt.Sprintf("(median of %d launches)", k))
	rep.notef("%-28s %14.4f %-6s n=%d  (%d of %d attempted)", "failed_frac", mean(float64(cs.failed), cs.attempted), "", cs.attempted, cs.failed, cs.attempted)
	if cfg.w.live {
		p50i, _, _ := cs.ingest.summary(99)
		rep.notef("%-28s %14.4f %-6s n=%d", "ingest_p50_ms", p50i, "ms", len(cs.ingest.ms))
	}
	crossCheck(rep, cfg.w, rr)
	rep.Attempted, rep.Failed = cs.attempted, cs.failed
	rep.Correct = cs.failed == 0 && n > 0
	if cs.firstErr != "" {
		rep.notef("first failure: %s", cs.firstErr)
	}
	return rep, nil
}

// crossCheck prints the program's own counter deltas over the window
// and, on the single-process workload, requires its expansion counts to
// equal what the reference booked for the same requests.
func crossCheck(rep *report, w workload, rr *realRun) {
	for _, k := range rr.deltas.keys() {
		rep.notef("xcheck %s %g", k, rr.deltas[k])
	}
	prog := pprShare(rr.deltas)
	ref := 0.0
	if rr.stats.refStructured > 0 {
		ref = float64(rr.stats.refPPR) / float64(rr.stats.refStructured)
	}
	rep.notef("xcheck ppr_share program=%.4f reference=%.4f memo_hit_frac=%.4f", prog, ref, memoHitFrac(rr.deltas))
	if !w.routed && !w.live {
		gotPPR := int(rr.deltas.get("pivote_expand_seconds_count", `method="ppr"`))
		gotStru := int(rr.deltas.get("pivote_expand_seconds_count", `method="features"`) +
			rr.deltas.get("pivote_expand_seconds_count", `method="score"`))
		if gotPPR != rr.stats.refPPR || gotStru != rr.stats.refStructured {
			rr.stats.fail("program counted %d PPR of %d structured evaluations, reference booked %d of %d",
				gotPPR, gotStru, rr.stats.refPPR, rr.stats.refStructured)
		}
	}
}
