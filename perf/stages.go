package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"pet"
	"pet/internal/bench"
	"pet/internal/fleet"
	"pet/internal/serve"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/workload"
)

// Fixed load shape: the same on every host, never derived from NumCPU.
const (
	fleetWorkers  = 2
	serveClients  = 2
	serveReplicas = 2
	setupReps     = 5   // set-ups per stage; the median is reported
	parityEvery   = 256 // every n-th response is compared with a direct Infer
	spanEvery     = 32  // every n-th request gets a span in the traced pass
)

// run is one pass of one workload. A nil tr is the untraced pass.
type run struct {
	workload string
	seed     int64
	shape    shape
	outDir   string
	tr       *tracer

	attempted, failed int
}

// fixedSeed draws every input that --seed does not reach. --seed reaches the
// request bodies and, on train_fleet, the training scenario. It does not
// reach:
//   - the sim stage: at 4 simulated ms the seed decides how many events there
//     are to fire (13.0 M on seed 1, 15.9 M on seed 5), so wall clock per
//     simulated ms moved ±12 % with the seed alone;
//   - the floor train stage, too few rounds to average a seed's luck out;
//   - the reproduction, the paper's catalog at petbench's default seed: on the
//     quick windows its Fig. 4 ratio is 0.82, 1.00 and 1.18 on seeds 1, 2, 3.
//
// Fixed inputs leave only the host's noise in those numbers.
const fixedSeed = 1

// fail records a correctness violation.
func (r *run) fail(format string, a ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perf: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, a...))
}

// registry returns a fresh telemetry registry in the traced pass, so a
// stage's counters are its own, and nil in the untraced pass.
func (r *run) registry() *telemetry.Registry {
	if r.tr == nil {
		return nil
	}
	return telemetry.New()
}

// setUp builds a stage's state setupReps times, dropping all but the last,
// and returns the last with the median build time in seconds.
func setUp[T any](build func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			drop(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

func digestOf(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

// ---- sim stage -----------------------------------------------------------

type simOut struct {
	setupS  float64
	repWall []float64  // seconds per repetition
	simMs   float64    // simulated milliseconds per repetition
	fired   uint64     // events per repetition
	digest  string     // of the repetitions' bench.Result
	env     *bench.Env // stays reachable for live_heap_mb
	tele    telemetry.Snapshot
}

func (r *run) simScenario(warmup, measure sim.Time, shards int, reg *telemetry.Registry) bench.Scenario {
	return bench.Scenario{
		Topo: topo.PaperScale(), Seed: fixedSeed, Scheme: bench.SchemeSECN1,
		Transport: bench.TransportDCQCN, Workload: workload.WebSearch(), Load: 0.6,
		Warmup: warmup, ExplicitWarmup: true, Duration: measure,
		Shards: shards, Telemetry: reg,
	}
}

// simRep assembles one env and runs it, timing Env.Run alone.
func (r *run) simRep(parent, shards int, reg *telemetry.Registry) (*bench.Env, bench.Result, float64, error) {
	sp := r.tr.begin("bench.NewEnv", parent)
	env, err := bench.NewEnv(r.simScenario(r.shape.simWarmup, r.shape.simMeasure, shards, reg))
	r.tr.end(sp)
	if err != nil {
		return nil, bench.Result{}, 0, err
	}
	sp = r.tr.begin("bench.Env.Run", parent)
	start := time.Now()
	res := env.Run()
	wall := time.Since(start).Seconds()
	r.tr.end(sp)
	return env, res, wall, nil
}

func (r *run) simStage() (simOut, error) {
	var out simOut
	stage := r.tr.begin("stage.sim", 0)
	defer r.tr.end(stage)
	reg := r.registry()

	// Warm-up: a few simulated microseconds grow the event heap, the packet
	// pools and the Go heap to their working size.
	if _, err := bench.Run(r.simScenario(20*sim.Microsecond, 50*sim.Microsecond, 1, nil)); err != nil {
		return out, fmt.Errorf("sim warm-up: %w", err)
	}

	sp := r.tr.begin("setup.sim", stage)
	_, setupS, err := setUp(func() (*bench.Env, error) {
		return bench.NewEnv(r.simScenario(r.shape.simWarmup, r.shape.simMeasure, 1, nil))
	}, func(*bench.Env) {})
	r.tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("sim set-up: %w", err)
	}
	out.setupS = setupS
	out.simMs = float64(r.shape.simWarmup+r.shape.simMeasure) / float64(sim.Millisecond)

	for i := 0; i < r.shape.simReps; i++ {
		env, res, wall, err := r.simRep(stage, 1, reg)
		if err != nil {
			return out, fmt.Errorf("sim repetition %d: %w", i, err)
		}
		r.attempted++
		d := digestOf(res)
		switch {
		case res.Drops != 0:
			r.fail("sim repetition %d dropped %d packets", i, res.Drops)
		case res.FlowsDone == 0:
			r.fail("sim repetition %d completed no flow", i)
		case i > 0 && d != out.digest:
			r.fail("sim repetition %d digest %s differs from repetition 0 %s", i, d, out.digest)
		}
		out.repWall = append(out.repWall, wall)
		out.fired, out.digest, out.env = env.Eng.Fired(), d, env
	}
	out.tele = reg.Snapshot()
	return out, nil
}

// simSharded runs one repetition on two shards and compares it with the
// single-loop result; it returns the repetition's wall seconds.
func (r *run) simSharded(single simOut) (float64, error) {
	_, res, wall, err := r.simRep(0, 2, nil)
	if err != nil {
		return 0, fmt.Errorf("sharded repetition: %w", err)
	}
	r.attempted++
	if d := digestOf(res); d != single.digest {
		r.fail("Shards=2 digest %s differs from Shards=1 %s", d, single.digest)
	}
	return wall, nil
}

// ---- train stage ---------------------------------------------------------

type trainOut struct {
	setupS      float64
	wall        float64
	episodes    int
	finalReward float64
	roundMs     []float64
	updates     int
	retries     int
	models      []byte
	tele        telemetry.Snapshot
}

// episodesPerS is the fleet's throughput over its lower-quartile round.
func (t trainOut) episodesPerS() float64 {
	return fleetWorkers / (lowQuartile(t.roundMs) / 1e3)
}

func (r *run) trainScenario() bench.Scenario {
	seed := int64(fixedSeed)
	if r.shape.primary == "train" {
		seed = r.seed
	}
	return bench.Scenario{
		Topo: topo.TinyScale(), Seed: seed, Scheme: bench.SchemePET,
		Load: 0.3, IncastFraction: 0.2, IncastFanIn: 3,
	}
}

func (r *run) trainStage() (trainOut, error) {
	var out trainOut
	stage := r.tr.begin("stage.train", 0)
	defer r.tr.end(stage)
	reg := r.registry()

	// Warm-up: one short round, no checkpoint.
	if _, err := fleet.Pretrain(r.trainScenario(), fleet.Config{
		Workers: fleetWorkers, Rounds: 1, Episode: 8 * sim.Millisecond}); err != nil {
		return out, fmt.Errorf("train warm-up: %w", err)
	}

	sp := r.tr.begin("setup.train", stage)
	dir, setupS, err := setUp(func() (string, error) {
		return os.MkdirTemp(r.outDir, "ckpt-")
	}, func(d string) { os.RemoveAll(d) })
	r.tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("train set-up: %w", err)
	}
	defer os.RemoveAll(dir)
	out.setupS = setupS

	sp = r.tr.begin("fleet.Pretrain", stage)
	start := time.Now()
	roundStart := start
	res, err := fleet.Pretrain(r.trainScenario(), fleet.Config{
		Workers: fleetWorkers, Rounds: r.shape.trainRounds, Episode: r.shape.trainEpisode,
		Checkpoint: dir, Telemetry: reg,
		OnRound: func(rs fleet.RoundStats) {
			now := time.Now()
			r.tr.record("fleet.round."+strconv.Itoa(rs.Round), sp, roundStart, now)
			out.roundMs = append(out.roundMs, now.Sub(roundStart).Seconds()*1e3)
			roundStart = now
			out.finalReward = rs.MeanReward
			out.updates += rs.Updates
			out.episodes += rs.Episodes
		},
	})
	out.wall = time.Since(start).Seconds()
	r.tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("fleet.Pretrain: %w", err)
	}
	r.attempted += fleetWorkers * r.shape.trainRounds
	out.retries, out.models = res.Retries, res.Models
	switch {
	case res.Retries != 0 || len(res.DegradedRounds) != 0:
		r.fail("training had %d retries and degraded rounds %v", res.Retries, res.DegradedRounds)
	case out.episodes != fleetWorkers*r.shape.trainRounds:
		r.fail("training merged %d episodes, want %d", out.episodes, fleetWorkers*r.shape.trainRounds)
	case len(res.Models) == 0:
		r.fail("training returned an empty bundle")
	default:
		if _, err := serve.NewInferService(res.Models, serve.InferOptions{Topo: "tiny", Replicas: 1}); err != nil {
			r.fail("trained bundle rejected by NewInferService: %v", err)
		}
	}
	out.tele = reg.Snapshot()
	return out, nil
}

// ---- serve stage ---------------------------------------------------------

// daemon is the in-process service under load.
type daemon struct {
	svc  *serve.InferService
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func startDaemon(reg *telemetry.Registry) (*daemon, error) {
	bundle, err := bench.PretrainInit(bench.Scenario{Topo: topo.PaperScale(), Scheme: bench.SchemePET, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("PretrainInit: %w", err)
	}
	svc, err := serve.NewInferService(bundle, serve.InferOptions{Topo: "paper", Replicas: serveReplicas, Telemetry: reg})
	if err != nil {
		return nil, fmt.Errorf("NewInferService: %w", err)
	}
	srv := serve.New(serve.Config{Infer: svc, Telemetry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{svc: svc, srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/infer", done: make(chan struct{})}
	go func() {
		_ = d.http.Serve(ln) // returns ErrServerClosed on stop
		close(d.done)
	}()
	return d, nil
}

// stop closes the listener and its connections and waits for Serve to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx, d.http) // best effort: Close below is the backstop
	_ = d.http.Close()
	<-d.done
}

// inferBody is one pre-encoded request with the response it must produce.
type inferBody struct {
	raw  []byte
	reqs []serve.ObsRequest
	want []byte
}

// makeBodies draws the request bodies from the seed and computes, through a
// direct InferService.Infer, the exact bytes the daemon must answer.
func (r *run) makeBodies(parent int, svc *serve.InferService) ([]inferBody, error) {
	info := svc.Info()
	rnd := rand.New(rand.NewSource(r.seed))
	bodies := make([]inferBody, r.shape.serveBodies)
	next := 0
	for i := range bodies {
		b := &bodies[i]
		b.reqs = make([]serve.ObsRequest, r.shape.serveObs)
		for j := range b.reqs {
			obs := make([]float64, info.ObsDim)
			for k := range obs {
				obs[k] = rnd.Float64()
			}
			b.reqs[j] = serve.ObsRequest{Switch: info.Switches[next%len(info.Switches)], Obs: obs}
			next++
		}
		sp := r.tr.begin("request.encode", parent)
		raw, err := json.Marshal(serve.InferRequest{Requests: b.reqs})
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		b.raw = raw
		actions := make([]serve.ECNAction, len(b.reqs))
		ref, err := svc.Infer(b.reqs, actions)
		if err != nil {
			return nil, fmt.Errorf("direct Infer: %w", err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want) // the daemon's writeJSON encoding
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.InferResponse{ModelVersion: ref.Version, ModelSHA256: ref.SHA256, Actions: actions}); err != nil {
			return nil, err
		}
		b.want = want.Bytes()
	}
	return bodies, nil
}

type serveOut struct {
	setupS float64
	loadOut
	directUs  float64 // InferService.Infer per request, no HTTP (traced pass)
	mallocs   float64 // heap allocations per request, generator included
	obsPerReq int
	slo       time.Duration // latency limit a request must meet
	svc       *serve.InferService
}

// loadOut is what the clients saw over one window.
type loadOut struct {
	sent    int       // requests sent
	ok      int       // 200 responses that passed the parity check
	elapsed float64   // seconds from the window's start to its last response
	latUs   []float64 // sorted client-observed latencies of ok responses

	// The window cut into loadSlices runs of consecutive responses, each
	// summarised on its own; the better quartile across slices is what the
	// end-to-end metrics report, so a burst of interference from the host
	// spoils some slices and not the window.
	rps, p50Us, p99Us float64
	sliceRps          []float64
}

const loadSlices = 8

// load drives the closed loop for d.
func (r *run) load(parent int, dm *daemon, bodies []inferBody, d time.Duration) loadOut {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	type response struct {
		endNs int64 // since the window's start
		latUs float64
	}
	type result struct {
		sent int
		ok   []response
	}
	results := make([]result, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.ok = make([]response, 0, 1<<16)
			var buf bytes.Buffer
			for i := c; ; i += serveClients {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				b := &bodies[i%len(bodies)]
				sp := 0
				if res.sent%spanEvery == 0 {
					sp = r.tr.begin("request.roundtrip", parent)
				}
				resp, err := client.Post(dm.url, "application/json", bytes.NewReader(b.raw))
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
				}
				end := time.Now()
				if sp != 0 {
					r.tr.end(sp)
				}
				good := err == nil && resp.StatusCode == http.StatusOK
				if good && res.sent%parityEvery == 0 && !bytes.Equal(buf.Bytes(), b.want) {
					good = false
				}
				res.sent++
				if good {
					res.ok = append(res.ok, response{end.Sub(start).Nanoseconds(), float64(end.Sub(t0).Nanoseconds()) / 1e3})
				}
			}
		}(c)
	}
	wg.Wait()

	var out loadOut
	var all []response
	for _, res := range results {
		out.sent += res.sent
		all = append(all, res.ok...)
	}
	out.ok = len(all)
	if out.ok == 0 {
		return out
	}
	sort.Slice(all, func(i, j int) bool { return all[i].endNs < all[j].endNs })
	out.elapsed = float64(all[len(all)-1].endNs) / 1e9

	var rps, p50, p99 []float64
	sliceStart := int64(0)
	for k := 0; k < loadSlices; k++ {
		part := all[k*len(all)/loadSlices : (k+1)*len(all)/loadSlices]
		if len(part) == 0 {
			continue
		}
		lat := make([]float64, len(part))
		for i, resp := range part {
			lat[i] = resp.latUs
		}
		sort.Float64s(lat)
		sliceEnd := part[len(part)-1].endNs
		rps = append(rps, float64(len(part))*1e9/float64(sliceEnd-sliceStart))
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		sliceStart = sliceEnd
		out.latUs = append(out.latUs, lat...)
	}
	sort.Float64s(out.latUs)
	out.rps, out.p50Us, out.p99Us, out.sliceRps = highQuartile(rps), lowQuartile(p50), lowQuartile(p99), rps
	return out
}

func (r *run) serveStage() (serveOut, error) {
	var out serveOut
	stage := r.tr.begin("stage.serve", 0)
	defer r.tr.end(stage)
	reg := r.registry()

	sp := r.tr.begin("setup.serve", stage)
	dm, setupS, err := setUp(func() (*daemon, error) { return startDaemon(reg) }, (*daemon).stop)
	r.tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("serve set-up: %w", err)
	}
	defer dm.stop()
	out.setupS, out.svc = setupS, dm.svc
	out.obsPerReq, out.slo = r.shape.serveObs, r.shape.serveSLO

	bodies, err := r.makeBodies(stage, dm.svc)
	if err != nil {
		return out, fmt.Errorf("request bodies: %w", err)
	}

	sp = r.tr.begin("serve.warmup", stage)
	r.load(sp, dm, bodies, r.shape.serveWarm)
	r.tr.end(sp)

	var before, after runtimeMem
	before.read()
	sp = r.tr.begin("serve.window", stage)
	out.loadOut = r.load(sp, dm, bodies, r.shape.serveWindow)
	r.tr.end(sp)
	after.read()
	r.attempted += out.sent
	if bad := out.sent - out.ok; bad > 0 {
		r.failed += bad
		fmt.Fprintf(os.Stderr, "perf: %s: FAIL: %d of %d /infer requests errored, were not 200 or broke parity\n", r.workload, bad, out.sent)
	}
	if out.sent > 0 {
		out.mallocs = float64(after.mallocs-before.mallocs) / float64(out.sent)
	}

	if r.tr != nil {
		// The same bodies straight into the service: what a request costs
		// without HTTP, JSON, admission and the loopback socket.
		actions := make([]serve.ECNAction, r.shape.serveObs)
		n := 0
		start := time.Now()
		for time.Since(start) < 300*time.Millisecond {
			sp := 0
			if n%spanEvery == 0 {
				sp = r.tr.begin("serve.InferService.Infer", stage)
			}
			if _, err := dm.svc.Infer(bodies[n%len(bodies)].reqs, actions); err != nil {
				return out, fmt.Errorf("direct Infer: %w", err)
			}
			if sp != 0 {
				r.tr.end(sp)
			}
			n++
		}
		out.directUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	}
	return out, nil
}

// ---- repro stage ---------------------------------------------------------

type reproOut struct {
	setupS   float64
	wall     float64
	ratio    float64 // Fig. 4(a) PET ÷ SECN1 at 70% load
	digest   string
	exhibitS map[string]float64
	exhibits int
	runner   *bench.Runner
}

func (r *run) reproStage() (reproOut, error) {
	out := reproOut{exhibitS: map[string]float64{}}
	stage := r.tr.begin("stage.repro", 0)
	defer r.tr.end(stage)

	// What `petbench -quick` configures.
	newRunner := func() (*bench.Runner, error) {
		rn := pet.NewRunner()
		rn.Seed = fixedSeed
		rn.TrainTime, rn.Warmup, rn.Duration = r.shape.reproTrain, r.shape.reproWarmup, r.shape.reproDuration
		rn.Telemetry = r.registry()
		if !r.shape.reproFull {
			rn.Loads = []float64{0.7}
		}
		return rn, nil
	}
	sp := r.tr.begin("setup.repro", stage)
	runner, setupS, err := setUp(newRunner, func(*bench.Runner) {})
	r.tr.end(sp)
	if err != nil {
		return out, err
	}
	out.setupS = setupS

	selected, reps := exhibitNames, 1
	if !r.shape.reproFull {
		// The floor is short enough to repeat; the fastest of three drops
		// the repetitions the host slowed.
		selected, reps = []string{"fig4"}, 3
	}
	var walls []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			if runner, err = newRunner(); err != nil { // a fresh result cache
				return out, err
			}
		}
		catalog := exhibitCatalog(runner)
		hash := sha256.New()
		start := time.Now()
		for _, name := range selected {
			sp := r.tr.begin("exhibit."+name, stage)
			t0 := time.Now()
			tables, err := catalog[name]()
			out.exhibitS[name] = time.Since(t0).Seconds()
			r.tr.end(sp)
			if err != nil {
				return out, fmt.Errorf("exhibit %s: %w", name, err)
			}
			r.attempted++
			for _, t := range tables {
				hash.Write([]byte(t.String()))
			}
			if name == "fig4" {
				if out.ratio, err = nfctRatio70(tables[0]); err != nil {
					r.fail("%v", err)
				}
			}
		}
		walls = append(walls, time.Since(start).Seconds())
		d := hex.EncodeToString(hash.Sum(nil)[:8])
		if rep > 0 && d != out.digest {
			r.fail("repro repetition %d digest %s differs from repetition 0 %s", rep, d, out.digest)
		}
		out.digest, out.runner = d, runner
	}
	out.wall, out.exhibits = fastest(walls), len(selected)
	return out, nil
}

// exhibitCatalog is petbench's catalog over one runner.
func exhibitCatalog(runner *bench.Runner) map[string]func() ([]*bench.Table, error) {
	one := func(f func() (*bench.Table, error)) func() ([]*bench.Table, error) {
		return func() ([]*bench.Table, error) {
			t, err := f()
			return []*bench.Table{t}, err
		}
	}
	return map[string]func() ([]*bench.Table, error){
		"fig3": func() ([]*bench.Table, error) { return []*bench.Table{runner.Fig3()}, nil },
		"fig4": runner.Fig4, "fig5": runner.Fig5, "fig6": runner.Fig6,
		"fig7": one(runner.Fig7), "fig8": one(runner.Fig8), "fig9": one(runner.Fig9),
		"table1": one(runner.Table1), "overhead": one(runner.AblationReplayOverhead),
		"historyk": one(runner.AblationHistoryK), "beta": one(runner.AblationRewardBeta),
		"dynamic": one(runner.DynamicBaselines), "ctde": one(runner.AblationCTDE),
		"compat": one(runner.TransportCompat),
	}
}

// nfctRatio70 reads PET ÷ SECN1 from the 70% column of the Fig. 4(a) table.
func nfctRatio70(t *bench.Table) (float64, error) {
	col := -1
	for i, c := range t.Columns {
		if c == "70%" {
			col = i
		}
	}
	cell := map[string]float64{}
	for _, row := range t.Rows {
		if col < 0 || col >= len(row) {
			break
		}
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			cell[row[0]] = v
		}
	}
	pet, secn := cell[string(bench.SchemePET)], cell[string(bench.SchemeSECN1)]
	if pet <= 0 || secn <= 0 {
		return 0, fmt.Errorf("Fig. 4(a) has no positive PET and SECN1 cells at 70%% load: %v", t.Rows)
	}
	return pet / secn, nil
}
