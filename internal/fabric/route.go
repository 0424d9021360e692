package fabric

import (
	"hash/fnv"
	"sort"
	"strings"
)

// routeKey extracts the routing key from a stable engine job ID
// ("job-" + 16 hex digits of the canonical spec hash): the first 8 hex
// digits — exactly the fragment internal/server embeds in every
// submission ID (j-<seq>-<8 hex>). Keying on the shared fragment means
// a submission routes identically whether the coordinator knows the
// full spec (POST) or only the submission ID (GET/DELETE/SSE), and
// identical specs always share a key, which is what gives the node-
// local engine cache and durable ledger their end-to-end affinity.
func routeKey(engineID string) string {
	key := strings.TrimPrefix(engineID, "job-")
	if len(key) > 8 {
		key = key[:8]
	}
	return key
}

// keyFromSubmissionID recovers the routing key embedded in a node
// submission ID of the form "j-<seq>-<8 hex>". It reports ok=false for
// IDs in any other shape (which the proxy then resolves by sweeping the
// healthy nodes instead).
func keyFromSubmissionID(id string) (string, bool) {
	parts := strings.Split(id, "-")
	if len(parts) != 3 || parts[0] != "j" || len(parts[2]) != 8 {
		return "", false
	}
	for _, r := range parts[2] {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", false
		}
	}
	return parts[2], true
}

// score is the rendezvous weight of (key, node): FNV-1a over the node
// name and the key. Each node hashes the key independently, so adding
// or removing a node only moves the keys that node wins — no global
// reshuffle, which keeps cache affinity through membership changes.
func score(key, nodeName string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(nodeName))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// rank returns every node index in rendezvous order for key: highest
// score first, index as the (deterministic) tie-break. rank[0] is the
// key's home node; failover walks the rest in order.
func (c *Coordinator) rank(key string) []int {
	type scored struct {
		idx int
		s   uint64
	}
	ranked := make([]scored, len(c.nodes))
	for i, n := range c.nodes {
		ranked[i] = scored{idx: i, s: score(key, n.name)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].idx < ranked[j].idx
	})
	out := make([]int, len(ranked))
	for i, r := range ranked {
		out[i] = r.idx
	}
	return out
}

// candidates returns the node indices to try, in order, for a request
// addressed to an existing submission ID: rendezvous order of the ID's
// embedded routing key (of the empty key when the ID embeds none). Every
// node appears exactly once, so a sweep visits the whole fabric.
// Coordinator and nodes derive the key from the same spec hash, which
// does not depend on either side's core count, so the first candidate is
// the node the submission was routed to unless failover moved it.
func (c *Coordinator) candidates(subID string) []int {
	key, _ := keyFromSubmissionID(subID)
	return c.rank(key)
}
