package multigossip

import (
	"encoding/json"
	"fmt"
	"io"

	"multigossip/internal/graph"
	"multigossip/internal/schedule"
)

// LoadNetwork reads a network in the edge-list text format:
//
//	# comments allowed
//	n 5
//	0 1
//	1 2
//
// the same format WriteEdgeList emits, so topologies round-trip between
// runs and external tools.
func LoadNetwork(r io.Reader) (*Network, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return fromGraph(g), nil
}

// WriteEdgeList serialises the network in the edge-list text format.
func (nw *Network) WriteEdgeList(w io.Writer) error { return nw.snapshotGraph().Write(w) }

// VerifyScheduleJSON decodes a schedule from the library's JSON shape and
// validates it on the network as a gossip schedule: model rules (one send,
// one receive, links exist, messages held) and completion (every processor
// ends with every message). On success it returns a one-line report with
// the total time, completion time, and transmission statistics; any
// violation is returned as an error naming the offending round.
func VerifyScheduleJSON(nw *Network, data []byte) (string, error) {
	var s schedule.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return "", fmt.Errorf("multigossip: decoding schedule: %w", err)
	}
	res, err := schedule.CheckGossip(nw.snapshotGraph(), &s)
	if err != nil {
		return "", err
	}
	st := schedule.Measure(&s)
	return fmt.Sprintf("VALID gossip schedule: n=%d time=%d completeAt=%d wasted=%d %s",
		s.N, s.Time(), res.CompleteAt, res.WastedDeliveries, st.String()), nil
}
