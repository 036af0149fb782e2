// Package cluster shards the SDN control plane across multiple controller
// replicas, going beyond the paper's single-controller evaluation: §7
// observes that Scotch "can be easily extended to support multiple
// controllers" by partitioning switches among them. Each replica is a full
// controller.Controller running the Scotch application over its shard; a
// coordinator scores per-replica load (Packet-In rate plus queue depth)
// and migrates pods on request — OpenFlow 1.3 master/slave role handoff
// with generation fencing, flow-state transfer, and in-flight work
// draining through the new master — and recovers from replica death via
// heartbeat-based failure detection. When to migrate is decided outside
// the coordinator, by a balance.Balancer calling MigratePod.
package cluster
