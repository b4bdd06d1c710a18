package main

import (
	"fmt"
	"math"
	"time"

	"pet/internal/sim"
)

// A run passes the whole system once — simulate, pre-train, serve,
// reproduce — because every end-to-end metric has to be measured on every
// workload. The workload decides which stage carries the load: its primary
// stage runs at the size the issue fixed for it, the other three at the
// floor size below, small enough to leave the primary stage most of the run
// and large enough that their numbers stay steady.
type shape struct {
	primary string // sim | train | serve | repro

	// sim stage: bench.Run on topo.PaperScale(), SECN1, dcqcn, WebSearch 0.6.
	simWarmup, simMeasure sim.Time
	simReps               int

	// train stage: fleet.Pretrain on topo.TinyScale(), PET, 2 workers.
	trainRounds  int
	trainEpisode sim.Time

	// serve stage: /infer over loopback, 2 closed-loop clients, 2 replicas.
	serveObs, serveBodies   int
	serveWarm, serveWindow  time.Duration
	serveSLO                time.Duration
	reproFull               bool // all 14 exhibits at 30/50/70% load; else Fig. 4 at 70%
	reproTrain, reproWarmup sim.Time
	reproDuration           sim.Time
}

// nominalSeconds is the --seconds value the sizes below are written for.
const nominalSeconds = 20

func floorShape() shape {
	return shape{
		simWarmup: 500 * sim.Microsecond, simMeasure: 500 * sim.Microsecond, simReps: 3,
		trainRounds: 4, trainEpisode: 50 * sim.Millisecond,
		serveObs: 1, serveBodies: 1024, serveWarm: 500 * time.Millisecond, serveWindow: 2 * time.Second,
		serveSLO:   time.Millisecond,
		reproTrain: 10 * sim.Millisecond, reproWarmup: 5 * sim.Millisecond, reproDuration: 15 * sim.Millisecond,
	}
}

// shapeFor returns the sizes of one workload for a run of the given length.
// traced selects the shorter primary stage of the traced pass.
func shapeFor(workload string, seconds int, traced bool) (shape, error) {
	s := floorShape()
	switch workload {
	case "sim_paper":
		s.primary = "sim"
		s.simWarmup, s.simMeasure, s.simReps = sim.Millisecond, 3*sim.Millisecond, 3
		if traced {
			s.simReps = 1
		}
	case "train_fleet":
		s.primary = "train"
		s.trainRounds = 20
		if traced {
			s.trainRounds = 8
		}
	case "serve_single", "serve_batch":
		s.primary = "serve"
		s.serveWarm, s.serveWindow = time.Second, 8*time.Second
		if traced {
			s.serveWindow = 3 * time.Second
		}
		if workload == "serve_batch" {
			s.serveObs, s.serveBodies, s.serveSLO = 256, 64, 20*time.Millisecond
		}
	case "repro_quick":
		s.primary = "repro"
		s.reproFull = true
	default:
		return shape{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return s.scaled(float64(seconds) / nominalSeconds), nil
}

// scaled resizes every stage by f, so `--seconds` sets how much is measured.
// Work-sized stages (reps, rounds, simulated time) shrink below f = 1 and
// stay as written above it; the serving windows are wall-clock and follow f.
func (s shape) scaled(f float64) shape {
	if f == 1 {
		return s
	}
	g := math.Min(f, 1)
	simT := func(t sim.Time, floor sim.Time) sim.Time {
		if t = sim.Time(float64(t) * g); t < floor {
			return floor
		}
		return t
	}
	s.simWarmup = simT(s.simWarmup, 20*sim.Microsecond)
	s.simMeasure = simT(s.simMeasure, 50*sim.Microsecond)
	if s.trainRounds = int(math.Round(float64(s.trainRounds) * g)); s.trainRounds < 1 {
		s.trainRounds = 1
	}
	// Below 6.4 ms an episode completes no PPO update.
	s.trainEpisode = simT(s.trainEpisode, 8*sim.Millisecond)
	s.serveWarm = time.Duration(float64(s.serveWarm) * f)
	s.serveWindow = time.Duration(float64(s.serveWindow) * f)
	s.reproTrain = simT(s.reproTrain, 8*sim.Millisecond)
	s.reproWarmup = simT(s.reproWarmup, sim.Millisecond)
	s.reproDuration = simT(s.reproDuration, 2*sim.Millisecond)
	return s
}
