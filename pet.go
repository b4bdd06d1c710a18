// Package pet is a from-scratch Go reproduction of "PET: Multi-agent
// Independent PPO-based Automatic ECN Tuning for High-Speed Data Center
// Networks" (CLUSTER 2025).
//
// The package re-exports the library's public surface:
//
//   - A packet-level data-center network simulator (leaf-spine topologies,
//     ECMP, RED/ECN egress queues, link failures) with a DCQCN transport.
//   - PET itself: one Independent-PPO agent per switch, observing queue
//     length, link rates, marked rates, the current ECN configuration, the
//     incast degree and the mice/elephant flow ratio, and emitting discrete
//     (Kmin, Kmax, Pmax) RED configurations every Δt.
//   - The comparison schemes: ACC (DDQN with global experience replay) and
//     the static SECN1 (DCQCN) / SECN2 (HPCC) threshold settings.
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	result, err := pet.Run(pet.Scenario{Scheme: pet.SchemePET, Train: true, Load: 0.5})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(result.Overall.AvgSlowdown)
//
// Or regenerate a whole figure:
//
//	runner := pet.NewRunner()
//	tables, err := runner.Fig4()
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, table := range tables {
//		fmt.Println(table)
//	}
package pet

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	_ "pet/internal/acc" // register the ACC baseline scheme
	"pet/internal/bench"
	"pet/internal/buildinfo"
	"pet/internal/core"
	"pet/internal/dcqcn"
	_ "pet/internal/dctcp"  // register the DCTCP transport
	_ "pet/internal/dynecn" // register the AMT/QAECN baseline schemes
	"pet/internal/fleet"
	"pet/internal/modelstore"
	"pet/internal/netsim"
	"pet/internal/serve"
	"pet/internal/sim"
	_ "pet/internal/staticecn" // register the SECN1/SECN2 baseline schemes
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/trace"
	"pet/internal/workload"
)

// Simulation time. Time is an int64 count of picoseconds.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// NewEngine returns the deterministic discrete-event scheduler driving a
// run, with its clock at zero.
func NewEngine() *sim.Engine { return sim.NewEngine() }

// BuildLeafSpine constructs a leaf-spine fabric.
func BuildLeafSpine(cfg topo.LeafSpineConfig) *topo.LeafSpine { return topo.BuildLeafSpine(cfg) }

// PaperScale returns the paper's 288-host, 6-spine/12-leaf fabric.
func PaperScale() topo.LeafSpineConfig { return topo.PaperScale() }

// SmallScale returns a 16-host fabric with the paper's 4:1 uplink:host speed
// ratio.
func SmallScale() topo.LeafSpineConfig { return topo.SmallScale() }

// TinyScale returns the smallest multi-path fabric (4 hosts: 2 leaves × 2),
// used by the default benchmarks.
func TinyScale() topo.LeafSpineConfig { return topo.TinyScale() }

// TopoPresets lists the preset names, smallest fabric first.
func TopoPresets() []string { return topo.Presets() }

// Network-level types.
type (
	// NetworkConfig sets MTU, buffering, queue count and default ECN.
	NetworkConfig = netsim.Config
	// ECNConfig is one queue's RED/ECN marking configuration.
	ECNConfig = netsim.ECNConfig
)

// NewNetwork builds the runtime network for a topology graph.
func NewNetwork(eng *sim.Engine, ls *topo.LeafSpine, seed int64, cfg NetworkConfig) *netsim.Network {
	return netsim.New(eng, ls.Graph, seed, cfg)
}

// Transport types.
type (
	// TransportConfig holds DCQCN parameters.
	TransportConfig = dcqcn.Config
	// Flow is one sender→receiver transfer.
	Flow = dcqcn.Flow
	// TransportKind selects the end-host stack in a Scenario by
	// registered name.
	TransportKind = bench.TransportKind
)

// NewTransport attaches a DCQCN transport to every host of the network.
func NewTransport(net *netsim.Network, cfg TransportConfig) *dcqcn.Transport {
	return dcqcn.NewTransport(net, cfg)
}

// WebSearch returns the DCTCP web-search flow-size distribution.
func WebSearch() *workload.CDF { return workload.WebSearch() }

// DataMining returns the VL2 data-mining flow-size distribution.
func DataMining() *workload.CDF { return workload.DataMining() }

// PET — the paper's contribution.
type (
	// Controller is the PET multi-agent (DTDE) system over one network.
	Controller = core.Controller
	// ControllerConfig parameterizes PET (defaults follow Sec. 5.2).
	ControllerConfig = core.Config
	// AgentConfig holds the switch-agent settings ControllerConfig embeds:
	// action grid, state window, cadence, reward, class and seed.
	AgentConfig = core.AgentConfig
)

// NewController builds the PET controller: one IPPO agent per switch.
func NewController(net *netsim.Network, cfg ControllerConfig) *Controller {
	return core.NewController(net, cfg)
}

// Experiment harness.
type (
	// Scenario describes one simulation run end to end.
	Scenario = bench.Scenario
	// Env is an assembled, inspectable scenario.
	Env = bench.Env
	// Runner regenerates the paper's tables and figures.
	Runner = bench.Runner
	// Exhibit is one table or figure of the evaluation, run on a Runner.
	Exhibit = bench.Exhibit
	// Table is a printable experiment output.
	Table = bench.Table
	// Scheme selects the ECN control strategy under test.
	Scheme = bench.Scheme
	// ControlScheme is the interface an assembled ECN control scheme
	// implements (Env.Control holds one).
	ControlScheme = bench.ControlScheme
	// UnknownSchemeError reports an unregistered Scenario.Scheme
	// (errors.As).
	UnknownSchemeError = bench.UnknownSchemeError
	// SimDuration is simulated time in a scenario document, written as a Go
	// duration string ("20ms"), or as integer picoseconds ("7ps") when it
	// is not a whole number of nanoseconds.
	SimDuration = bench.SimDuration
)

// DecodeScenarioSpec parses a versioned scenario document strictly: unknown
// keys and malformed values yield a typed error naming the JSON path. The
// CLIs load documents via -scenario; petd accepts them embedded in POST
// /experiments.
func DecodeScenarioSpec(data []byte) (*bench.ScenarioSpec, error) {
	return bench.DecodeScenarioSpec(data)
}

// Overhead metric keys the built-in schemes report in Result.Overhead.
const (
	OverheadReplayBytes  = bench.OverheadReplayBytes
	OverheadReplayMemory = bench.OverheadReplayMemory
)

// RegisterScheme makes a control scheme selectable by name via
// Scenario.Scheme — the hook for plugging in schemes from outside this
// module (see README "Registering a custom scheme").
func RegisterScheme(name Scheme, build bench.SchemeBuilder) { bench.RegisterScheme(name, build) }

// SchemeNames lists every registered scheme, sorted.
func SchemeNames() []Scheme { return bench.SchemeNames() }

// TransportNames lists every registered transport, sorted.
func TransportNames() []TransportKind { return bench.TransportNames() }

// The paper's four compared schemes.
const (
	SchemePET   = bench.SchemePET
	SchemeACC   = bench.SchemeACC
	SchemeSECN1 = bench.SchemeSECN1
	SchemeSECN2 = bench.SchemeSECN2
)

// Run assembles and executes a scenario. An unregistered scheme or
// transport name yields a typed error (*UnknownSchemeError for schemes).
func Run(s Scenario) (bench.Result, error) { return bench.Run(s) }

// NewEnv assembles a scenario without running it, for custom wiring.
func NewEnv(s Scenario) (*Env, error) { return bench.NewEnv(s) }

// NewRunner returns the experiment runner with laptop-scale defaults.
func NewRunner() *Runner { return bench.NewRunner() }

// Exhibits lists the evaluation's exhibits in petbench's order.
func Exhibits() []Exhibit { return bench.Exhibits() }

// ResultTable renders one completed run as a metric/value table — the
// petbench output for spec-described scenarios without a paper figure.
func ResultTable(title string, res bench.Result) *Table { return bench.ResultTable(title, res) }

// PretrainPET runs the offline training phase of a PET or PET-ablated
// scenario (an empty scheme means PET) and returns a model bundle loadable
// via Scenario.Models.
func PretrainPET(s Scenario, dur Time) ([]byte, error) { return bench.PretrainPET(s, dur) }

// Parallel pre-training fleet (internal/fleet).
type (
	// FleetConfig parameterizes PretrainFleet: worker count, merge rounds,
	// checkpoint directory and resume behaviour, plus the fault-tolerance
	// knobs (retries, episode deadline, merge quorum).
	FleetConfig = fleet.Config
	// FleetRound summarizes one synchronized merge round (FleetConfig.OnRound).
	FleetRound = fleet.RoundStats
)

// DefaultEpisode is the pre-training episode length of a scenario that sets
// no duration.
const DefaultEpisode = fleet.DefaultEpisode

// PretrainFleet runs the offline training phase on a pool of parallel
// rollout workers: each round, every worker simulates one
// independently-seeded episode of dur from the current global models, and
// the per-worker weights are merged by averaging. With Workers=1 and
// Rounds=1 the result is bit-identical to PretrainPET(s, dur).
func PretrainFleet(s Scenario, dur Time, cfg FleetConfig) (fleet.Result, error) {
	return PretrainFleetContext(context.Background(), s, dur, cfg)
}

// PretrainFleetContext is PretrainFleet with run-level cancellation: when
// ctx is cancelled mid-run (e.g. on SIGINT), the fleet drains in-flight
// episodes, writes a final checkpoint for the last completed round, and
// returns the partial result alongside an error wrapping ctx.Err(), so an
// interrupted run resumes instead of losing the round.
func PretrainFleetContext(ctx context.Context, s Scenario, dur Time, cfg FleetConfig) (fleet.Result, error) {
	cfg.Episode = dur
	return fleet.PretrainContext(ctx, s, cfg)
}

// TraceRecorder accumulates structured simulation events for CSV export,
// including the fleet's per-round telemetry flush.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// NewTelemetry returns an empty metrics registry: named atomic counters,
// gauges and fixed-bucket histograms. Attach one via Scenario.Telemetry or
// FleetConfig.Telemetry to watch a run live; it is observation-only and
// never perturbs simulation or training determinism.
func NewTelemetry() *telemetry.Registry { return telemetry.New() }

// TelemetryFlag is the shared -telemetry plumbing of the CLIs (petsim,
// petbench, pettrain): Register it on a FlagSet, Start it after parsing,
// and defer Stop. With the flag unset, Start and Stop are no-ops and
// Registry stays as the caller left it (usually nil, which every consumer
// accepts); with -telemetry :8080, Start creates Registry if the caller has
// not pre-seeded one and serves it in the background.
type TelemetryFlag struct {
	Addr     string              // the flag value
	Registry *telemetry.Registry // served registry; created by Start when unset

	srv *http.Server
}

// Register installs the -telemetry flag.
func (t *TelemetryFlag) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Addr, "telemetry", "",
		"serve live metrics on this address (e.g. :8080): /metrics, /snapshot, /debug/pprof")
}

// Start begins serving if the flag was set; logf (nil = silent) receives
// one line with the bound endpoint.
func (t *TelemetryFlag) Start(logf func(format string, a ...any)) error {
	if t.Addr == "" {
		return nil
	}
	if t.Registry == nil {
		t.Registry = NewTelemetry()
	}
	srv, err := telemetry.Serve(t.Addr, t.Registry)
	if err != nil {
		return err
	}
	t.srv = srv
	if logf != nil {
		logf("telemetry: http://%s/metrics (also /snapshot, /debug/pprof)", srv.Addr)
	}
	return nil
}

// Stop drains the endpoint, letting an in-flight scrape finish.
func (t *TelemetryFlag) Stop() error {
	if t.srv == nil {
		return nil
	}
	return telemetry.Drain(t.srv, 5*time.Second)
}

// listings are the name registries a CLI can print, in the order the flags
// are checked.
var listings = [...]struct {
	flag, what string
	print      func(io.Writer)
}{
	{"list-schemes", "scheme names", func(w io.Writer) { printNames(w, bench.SchemeNames()) }},
	{"list-transports", "transport names", func(w io.Writer) { printNames(w, bench.TransportNames()) }},
	{"list-workloads", "workload names", func(w io.Writer) { printNames(w, workload.Names()) }},
	{"list-events", "event kinds", func(w io.Writer) { printNames(w, bench.EventKindNames()) }},
}

func printNames[S ~string](w io.Writer, names []S) {
	for _, name := range names {
		fmt.Fprintln(w, name)
	}
}

// InfoFlags is the shared print-and-exit preamble of the CLIs: -version
// (the build identity petd also serves at GET /version) plus the -list-*
// flags of the registries the CLI selects from. Register it on a FlagSet
// and call Handle after parsing.
type InfoFlags struct {
	version bool
	lists   [len(listings)]bool
}

// Register installs -version and the named list flags ("list-schemes",
// "list-transports", "list-workloads", "list-events").
func (f *InfoFlags) Register(fs *flag.FlagSet, lists ...string) {
	fs.BoolVar(&f.version, "version", false, "print the build identity and exit")
	for i, l := range listings {
		if slices.Contains(lists, l.flag) {
			fs.BoolVar(&f.lists[i], l.flag, false, "print the registered "+l.what+" and exit")
		}
	}
}

// Handle prints what the first set flag asks for and reports whether the
// CLI is done.
func (f *InfoFlags) Handle(stdout io.Writer) (done bool) {
	if f.version {
		fmt.Fprintln(stdout, buildinfo.Read())
		return true
	}
	for i, on := range f.lists {
		if on {
			listings[i].print(stdout)
			return true
		}
	}
	return false
}

// ScenarioFlags is the shared scenario flag set of the CLIs (petsim,
// pettrain, petbench) and their one path from command line to Scenario.
// -scenario names the base document; without it the base is the CLI default
// document: the tiny fabric, websearch at load 0.6 with a 0.2 incast share
// of fan-in 3, seed 1, PET over dcqcn with training on, 20ms warmup plus
// 60ms measurement. With -scenario each flag the user set
// overwrites its document field; without it every registered flag does. The
// CLI then calls ToScenario on the result, so a flag is validated exactly
// like the document field it writes.
type ScenarioFlags struct {
	File string // the -scenario path; empty selects the default document

	fs         *flag.FlagSet
	registered map[string]bool

	topo, workload, scheme, transport string
	spines, leaves, hosts, fanIn      int
	seed                              int64
	load, incast                      float64
	train                             bool
	warmup, duration                  time.Duration
}

// scenarioFlagNames are the flags ScenarioFlags can install, in the order
// they overwrite the document: -topo replaces the whole fabric before
// -spines/-leaves/-hosts adjust it.
var scenarioFlagNames = [...]string{"scenario", "seed", "topo", "spines", "leaves", "hosts",
	"workload", "load", "incast", "fanin", "scheme", "transport", "train", "warmup", "duration"}

// defaultScenarioSpec is the CLI default document.
func defaultScenarioSpec() *bench.ScenarioSpec {
	load := 0.6
	warmup, duration := bench.SimDuration(20*sim.Millisecond), bench.SimDuration(60*sim.Millisecond)
	return &bench.ScenarioSpec{
		Topo:     &bench.TopoSpec{Preset: "tiny"},
		Seed:     1,
		Workload: &bench.WorkloadSpec{Name: "websearch"},
		Load:     &load, IncastFraction: 0.2, IncastFanIn: 3,
		Scheme: string(SchemePET), Transport: string(bench.TransportDCQCN), Train: true,
		Warmup: &warmup, Duration: &duration,
	}
}

// Register installs the named flags — any of scenario, seed, topo, spines,
// leaves, hosts, workload, load, incast, fanin, scheme, transport,
// train, warmup, duration — each defaulting to the default document's value.
func (f *ScenarioFlags) Register(fs *flag.FlagSet, names ...string) {
	d := defaultScenarioSpec()
	f.fs, f.registered = fs, map[string]bool{}
	for _, name := range scenarioFlagNames {
		if !slices.Contains(names, name) {
			continue
		}
		f.registered[name] = true
		switch name {
		case "scenario":
			fs.StringVar(&f.File, name, "", "load a scenario document (JSON); explicitly-set flags override its fields")
		case "seed":
			fs.Int64Var(&f.seed, name, d.Seed, "root random seed")
		case "topo":
			fs.StringVar(&f.topo, name, d.Topo.Preset, "fabric preset: "+strings.Join(topo.Presets(), "|"))
		case "spines":
			fs.IntVar(&f.spines, name, 0, "override the preset's spine count")
		case "leaves":
			fs.IntVar(&f.leaves, name, 0, "override the preset's leaf count")
		case "hosts":
			fs.IntVar(&f.hosts, name, 0, "override the preset's hosts per leaf")
		case "workload":
			fs.StringVar(&f.workload, name, d.Workload.Name, "registered workload name: "+strings.Join(workload.Names(), "|"))
		case "load":
			fs.Float64Var(&f.load, name, *d.Load, "offered load fraction [0,1]")
		case "incast":
			fs.Float64Var(&f.incast, name, d.IncastFraction, "fraction of load delivered as incast groups")
		case "fanin":
			fs.IntVar(&f.fanIn, name, d.IncastFanIn, "senders per incast group")
		case "scheme":
			fs.StringVar(&f.scheme, name, d.Scheme, "registered scheme name (see -list-schemes)")
		case "transport":
			fs.StringVar(&f.transport, name, d.Transport, "registered end-host transport (see -list-transports)")
		case "train":
			fs.BoolVar(&f.train, name, d.Train, "online incremental training (learned schemes)")
		case "warmup":
			fs.DurationVar(&f.warmup, name, time.Duration(d.Warmup.Time()/sim.Nanosecond), "simulated warmup before measurement")
		case "duration":
			fs.DurationVar(&f.duration, name, time.Duration(d.Duration.Time()/sim.Nanosecond), "simulated measurement window")
		}
	}
}

// Spec returns the base document with the flags written over it. Call it
// after parsing and hand the result to ToScenario.
func (f *ScenarioFlags) Spec() (*bench.ScenarioSpec, error) {
	sp, set := defaultScenarioSpec(), f.registered
	if f.File != "" {
		data, err := os.ReadFile(f.File)
		if err != nil {
			return nil, err
		}
		if sp, err = bench.DecodeScenarioSpec(data); err != nil {
			return nil, err
		}
		set = map[string]bool{}
		f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	}
	fabric := func() *bench.TopoSpec {
		if sp.Topo == nil {
			sp.Topo = &bench.TopoSpec{}
		}
		return sp.Topo
	}
	simDuration := func(d time.Duration) *bench.SimDuration {
		sd := bench.SimDuration(sim.Time(d.Nanoseconds()) * sim.Nanosecond)
		return &sd
	}
	for _, name := range scenarioFlagNames {
		if !set[name] {
			continue
		}
		switch name {
		case "seed":
			sp.Seed = f.seed
		case "topo":
			sp.Topo = &bench.TopoSpec{Preset: f.topo}
		case "spines": // fabric overrides apply only when positive
			if f.spines > 0 {
				fabric().Spines = f.spines
			}
		case "leaves":
			if f.leaves > 0 {
				fabric().Leaves = f.leaves
			}
		case "hosts":
			if f.hosts > 0 {
				fabric().HostsPerLeaf = f.hosts
			}
		case "workload":
			sp.Workload = &bench.WorkloadSpec{Name: f.workload}
		case "load":
			sp.Load = &f.load
		case "incast":
			sp.IncastFraction = f.incast
		case "fanin":
			sp.IncastFanIn = f.fanIn
		case "scheme":
			sp.Scheme = f.scheme
		case "transport":
			sp.Transport = f.transport
		case "train":
			sp.Train = f.train
		case "warmup":
			sp.Warmup = simDuration(f.warmup)
		case "duration":
			sp.Duration = simDuration(f.duration)
		}
	}
	return sp, nil
}

// Resident control plane (internal/serve) — the subsystem behind the petd
// daemon: an experiment lifecycle API, SSE telemetry streaming and a
// batched inference service on one HTTP listener.
type (
	// DaemonConfig parameterizes NewDaemon.
	DaemonConfig = serve.Config
	// JobState is an experiment's lifecycle position.
	JobState = serve.JobState
	// InferService answers observation batches from a replica pool.
	InferService = serve.InferService
	// InferOptions parameterizes NewInferService.
	InferOptions = serve.InferOptions
	// InferRequest is the POST /infer wire format.
	InferRequest = serve.InferRequest
	// InferResponse answers an InferRequest.
	InferResponse = serve.InferResponse
	// ObsRequest is one switch's observation within an InferRequest.
	ObsRequest = serve.ObsRequest
	// JobJournal is the daemon's durable job journal: append-only JSONL,
	// replayed at boot so jobs survive a daemon death (DaemonConfig.Journal).
	JobJournal = serve.Journal
	// AdmissionConfig bounds /infer admission, deadlines, shedding and the
	// circuit breaker (DaemonConfig.Admission).
	AdmissionConfig = serve.AdmissionConfig
	// WatchdogConfig enables the hung-job watchdog (DaemonConfig.Watchdog).
	WatchdogConfig = serve.WatchdogConfig
)

// OpenJobJournal opens (creating if needed) the job journal at path and
// replays its history; logf (nil = silent) receives one warning per skipped
// entry. Hand the result to DaemonConfig.Journal.
func OpenJobJournal(path string, logf func(format string, a ...any)) (*JobJournal, error) {
	return serve.OpenJournal(path, logf, nil)
}

// NewDaemon assembles the control plane; serve it with its Start method and
// stop it with Shutdown.
func NewDaemon(cfg DaemonConfig) *serve.Server { return serve.New(cfg) }

// NewInferService loads a model bundle (from pettrain, the model store, or
// a finished pretrain job) into a pool of controller replicas for serving.
func NewInferService(bundle []byte, opts InferOptions) (*InferService, error) {
	return serve.NewInferService(bundle, opts)
}

// ModelStore is the on-disk, content-addressed, versioned store of model
// bundles (internal/modelstore) — what a fleet checkpoints into and what
// petd's /models API promotes and serves from.
type ModelStore = modelstore.Store

// ModelChannelServing is the store channel /infer answers from.
const ModelChannelServing = modelstore.ChannelServing

// OpenModelStore opens (or initializes) a model store rooted at dir.
func OpenModelStore(dir string) (*ModelStore, error) { return modelstore.Open(dir) }
