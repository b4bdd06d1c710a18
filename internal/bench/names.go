package bench

import "pet/internal/workload"

// defaultBetas returns the paper's per-workload reward weights (Sec. 5.2):
// (0.3, 0.7) for Web Search, (0.7, 0.3) for Data Mining.
func defaultBetas(wl *workload.CDF) (b1, b2 float64) {
	if wl != nil && wl.Name() == "DataMining" {
		return 0.7, 0.3
	}
	return 0.3, 0.7
}
