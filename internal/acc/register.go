package acc

import (
	"pet/internal/bench"
	"pet/internal/core"
)

// Plug the ACC baseline into the bench scheme registry.

func init() {
	bench.RegisterScheme(bench.SchemeACC, func(e *bench.Env) (bench.ControlScheme, error) {
		return NewController(e.Net, Config{
			AgentConfig:  core.ScenarioAgentConfig(e.Scenario, e.RecordECNChange),
			GlobalReplay: true,
		}), nil
	})
}

// Overhead implements bench.ControlScheme, metering the global-replay
// gossip volume and resident footprint PET's independent learning avoids.
func (c *Controller) Overhead() map[string]int64 {
	return map[string]int64{
		bench.OverheadReplayBytes:  c.BytesExchanged(),
		bench.OverheadReplayMemory: c.ReplayMemoryBytes(),
	}
}
