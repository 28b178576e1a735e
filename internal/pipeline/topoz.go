package pipeline

import (
	"encoding/json"
	"net/http"
	"sort"

	"commchar/internal/core"
)

// topoState is the /topoz debug page: the interconnect fabrics this
// process knows how to build, and the per-topology run accounting of the
// engine's metrics. Mounted on the obs debug server by every engine built
// with an observer.
type topoState struct {
	// Fabrics describes each selectable topology sized for a reference
	// 16-processor machine, so the page doubles as a catalog of shapes.
	Fabrics []topoFabric `json:"fabrics"`
	// Runs, Messages, SimTimeNS account executed simulations by the
	// topology family they ran on.
	Runs      map[string]int64 `json:"runs"`
	Messages  map[string]int64 `json:"messages"`
	SimTimeNS map[string]int64 `json:"sim_time_ns"`
}

type topoFabric struct {
	Selector  string `json:"selector"`
	Name      string `json:"name"` // stable config string of the 16-proc instance
	Endpoints int    `json:"endpoints"`
	Nodes     int    `json:"nodes"` // endpoints plus internal switches
	MinVCs    int    `json:"min_virtual_channels"`
}

// topozHandler renders the per-topology debug page from the live metrics.
func topozHandler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := topoState{
			Runs:      m.topoRuns.Snapshot(),
			Messages:  m.topoMsgs.Snapshot(),
			SimTimeNS: m.topoSimNS.Snapshot(),
		}
		names := core.TopologyNames()
		sort.Strings(names)
		for _, sel := range names {
			cfg, err := core.TopologyFor(sel, nil, 16)
			if err != nil {
				continue
			}
			fab := cfg.Fabric()
			st.Fabrics = append(st.Fabrics, topoFabric{
				Selector:  sel,
				Name:      fab.Name(),
				Endpoints: fab.Endpoints(),
				Nodes:     fab.Nodes(),
				MinVCs:    fab.MinVirtualChannels(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
