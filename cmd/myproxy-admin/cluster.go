package main

// Cluster administration: inspect ring placement and reconcile node stores
// after membership changes. These subcommands run offline against the
// nodes' store directories (mounted or rsync'd to the admin host), the same
// operational model as the other myproxy-admin verbs.
//
//	myproxy-admin ring         -nodes a,b,c [-rf 2] [-l username]
//	myproxy-admin rebalance    -stores a=dirA,b=dirB,c=dirC [-rf 2] [-dry-run]
//	myproxy-admin decommission -stores a=dirA,b=dirB,c=dirC -node c [-rf 2] [-dry-run]

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/credstore"
)

func splitNodes(spec string) []cluster.NodeID {
	var out []cluster.NodeID
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, cluster.NodeID(n))
		}
	}
	return out
}

// parseStores parses "id=dir,id=dir" into per-node file stores.
func parseStores(spec string) map[cluster.NodeID]credstore.Backend {
	stores := make(map[cluster.NodeID]credstore.Backend)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, dir, ok := strings.Cut(pair, "=")
		if !ok || id == "" || dir == "" {
			cliutil.Fatalf("myproxy-admin: -stores entry %q is not id=dir", pair)
		}
		if _, dup := stores[cluster.NodeID(id)]; dup {
			cliutil.Fatalf("myproxy-admin: duplicate node %q in -stores", id)
		}
		s, err := credstore.NewFileStore(dir)
		if err != nil {
			cliutil.Fatalf("myproxy-admin: %s: %v", id, err)
		}
		stores[cluster.NodeID(id)] = s
	}
	if len(stores) == 0 {
		cliutil.Fatalf("myproxy-admin: -stores is required (id=dir,...)")
	}
	return stores
}

// cmdRing prints ring placement: either one username's replica set or the
// whole-keyspace ownership spread (sampled).
func cmdRing(args []string) {
	fs := flag.NewFlagSet("myproxy-admin ring", flag.ExitOnError)
	nodesSpec := fs.String("nodes", "", "comma-separated node IDs (required)")
	rf := fs.Int("rf", cluster.DefaultReplicationFactor, "replication factor")
	username := fs.String("l", "", "show the replica set for one username")
	samples := fs.Int("samples", 10000, "keys sampled for the ownership spread")
	fs.Parse(args)
	nodes := splitNodes(*nodesSpec)
	if len(nodes) == 0 {
		cliutil.Fatalf("myproxy-admin ring: -nodes is required")
	}
	ring := cluster.NewRing(nodes...)

	if *username != "" {
		replicas := ring.Successors(*username, *rf)
		fmt.Printf("%s -> %v (primary %s)\n", *username, replicas, replicas[0])
		return
	}
	counts := make(map[cluster.NodeID]int, len(nodes))
	for i := 0; i < *samples; i++ {
		for _, n := range ring.Successors(fmt.Sprintf("sample-%d", i), *rf) {
			counts[n]++
		}
	}
	fmt.Printf("ring of %d node(s), rf=%d, %d sampled keys:\n", len(nodes), *rf, *samples)
	sorted := ring.Nodes()
	for _, n := range sorted {
		share := float64(counts[n]) / float64(*samples**rf) * 100
		fmt.Printf("  %-16s %6.2f%% of placements\n", n, share)
	}
}

// planFromFlags inventories the stores and plans moves against the ring.
func planFromFlags(ring *cluster.Ring, rf int, stores map[cluster.NodeID]credstore.Backend, dryRun bool) {
	moves, err := cluster.Plan(ring, rf, stores)
	if err != nil {
		cliutil.Fatalf("myproxy-admin: %v", err)
	}
	if len(moves) == 0 {
		fmt.Println("stores already match ring placement; nothing to do")
		return
	}
	for _, m := range moves {
		fmt.Println(m)
	}
	if dryRun {
		fmt.Printf("dry run: %d move(s) planned, none applied\n", len(moves))
		return
	}
	if err := cluster.Apply(moves, stores); err != nil {
		cliutil.Fatalf("myproxy-admin: %v", err)
	}
	fmt.Printf("applied %d move(s)\n", len(moves))
}

// cmdRebalance reconciles entry placement after nodes were added (or after
// a repair restored an empty store).
func cmdRebalance(args []string) {
	fs := flag.NewFlagSet("myproxy-admin rebalance", flag.ExitOnError)
	storesSpec := fs.String("stores", "", "id=dir pairs for every node (required)")
	rf := fs.Int("rf", cluster.DefaultReplicationFactor, "replication factor")
	dryRun := fs.Bool("dry-run", false, "print the plan without applying it")
	fs.Parse(args)
	stores := parseStores(*storesSpec)
	ids := make([]cluster.NodeID, 0, len(stores))
	for id := range stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	planFromFlags(cluster.NewRing(ids...), *rf, stores, *dryRun)
}

// cmdDecommission drains one node: the ring is built WITHOUT it, its store
// stays in the plan as a source, so its entries are copied to the new owners
// and then removed.
func cmdDecommission(args []string) {
	fs := flag.NewFlagSet("myproxy-admin decommission", flag.ExitOnError)
	storesSpec := fs.String("stores", "", "id=dir pairs for every node, including the leaver (required)")
	node := fs.String("node", "", "node ID to decommission (required)")
	rf := fs.Int("rf", cluster.DefaultReplicationFactor, "replication factor")
	dryRun := fs.Bool("dry-run", false, "print the plan without applying it")
	fs.Parse(args)
	if *node == "" {
		cliutil.Fatalf("myproxy-admin decommission: -node is required")
	}
	stores := parseStores(*storesSpec)
	if _, ok := stores[cluster.NodeID(*node)]; !ok {
		cliutil.Fatalf("myproxy-admin decommission: node %q not in -stores", *node)
	}
	var remaining []cluster.NodeID
	for id := range stores {
		if id != cluster.NodeID(*node) {
			remaining = append(remaining, id)
		}
	}
	if len(remaining) < *rf {
		cliutil.Fatalf("myproxy-admin decommission: %d remaining node(s) cannot hold rf=%d", len(remaining), *rf)
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })
	planFromFlags(cluster.NewRing(remaining...), *rf, stores, *dryRun)
}
