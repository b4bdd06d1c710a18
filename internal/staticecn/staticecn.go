// Package staticecn provides the two static ECN baselines of the paper's
// evaluation (Sec. 5.4): SECN1 mirrors DCQCN's recommended thresholds and
// SECN2 mirrors HPCC's. Static schemes install one immutable RED/ECN
// configuration on every switch queue and never adjust it.
package staticecn

import "pet/internal/netsim"

// SECN1 is the DCQCN static configuration: Kmin = 5 KB, Kmax = 200 KB.
func SECN1() netsim.ECNConfig {
	return netsim.ECNConfig{Enabled: true, KminBytes: 5 << 10, KmaxBytes: 200 << 10, Pmax: 0.05}
}

// SECN2 is the HPCC static configuration: Kmin = 100 KB, Kmax = 400 KB.
func SECN2() netsim.ECNConfig {
	return netsim.ECNConfig{Enabled: true, KminBytes: 100 << 10, KmaxBytes: 400 << 10, Pmax: 0.05}
}

// Apply installs cfg on the given data-queue class of every switch egress
// port.
func Apply(net *netsim.Network, class int, cfg netsim.ECNConfig) {
	for _, p := range net.SwitchPorts() {
		p.SetECN(class, cfg)
	}
}
