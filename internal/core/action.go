package core

import "pet/internal/netsim"

// This file is the ECN Configuration Module (ECN-CM, Sec. 4.4.2): it turns
// the discrete head indices emitted by the DRL agent into a RED/ECN queue
// configuration, enforcing Kmin < Kmax.

// ActionToECN maps (nmin, offset, pmaxLevel) head indices to an ECNConfig:
// Kmin = E(nmin) and Kmax = E(nmin + 1 + offset). Parameterizing the upper
// threshold as an exponent offset realizes the paper's "Kmin is ensured to
// be less than Kmax" by construction — every joint action is valid, which
// keeps the policy space free of redundant/degenerate regions.
func (c Config) ActionToECN(acts []int) netsim.ECNConfig {
	nmin, off, pl := acts[0], acts[1], acts[2]
	nmax := nmin + 1 + off
	if nmax > c.NMax+1 {
		nmax = c.NMax + 1
	}
	pmax := c.PmaxStep * float64(pl+1)
	if pmax > 1 {
		pmax = 1
	}
	return netsim.ECNConfig{
		Enabled:   true,
		KminBytes: c.thresholdBytes(nmin),
		KmaxBytes: c.thresholdBytes(nmax),
		Pmax:      pmax,
	}
}

// ECNToFeatures normalizes a queue configuration into the three state
// components representing ECN^(c) in Eq. (2).
func (c AgentConfig) ECNToFeatures(cfg netsim.ECNConfig) (kmin, kmax, pmax float64) {
	norm := c.maxThresholdBytes()
	return float64(cfg.KminBytes) / norm, float64(cfg.KmaxBytes) / norm, cfg.Pmax
}

// DefaultAction is the neutral configuration installed before the first
// policy decision: the middle of the threshold range with a moderate Pmax.
func (c Config) DefaultAction() []int {
	return []int{c.NMax / 2, 1, c.PmaxLevels / 4}
}
