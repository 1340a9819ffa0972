package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
)

// opKind is one of the four repository operations the workloads issue.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opInfo
	opDestroy
	numOps
)

var opNames = [numOps]string{"GET", "PUT", "INFO", "DESTROY"}

// op is one scheduled operation: what to do and for which user.
type op struct {
	kind opKind
	user uint16
}

// mix holds how many times each operation occurs in one deck. A worker's
// schedule is deck after deck, each shuffled: the order is random but every
// stretch of the run carries the stated shares, so a window that happens to
// draw more of the expensive operations does not pass for a slow one. A
// DESTROY emits, right behind itself, a PUT for the same user, so the
// user's default credential is back before any later operation of that
// worker needs it. A deck of 12/5/1/1 is therefore 20 operations: 12 GET,
// 6 PUT, 1 INFO, 1 DESTROY — the 60/30/5/5 mix.
type mix [numOps]int

// scheduleLen is the least number of operations generated per worker. It
// is sized so the fastest workload (about 1100 operations per second per
// worker) does not reach the end in a 60 s run; a worker that does reach
// the end starts over from the beginning.
const scheduleLen = 1 << 16

// buildSchedule fixes every worker's (operation, user) sequence before the
// clock starts. One PRNG seeded from seed drives all workers; users are
// drawn uniformly. Users are
// partitioned between workers (user u belongs to worker u mod workers), so
// no worker reads a credential another worker has just destroyed. The
// returned digest identifies the schedule in result files.
func buildSchedule(seed int64, workers, users int, m mix) ([][]op, string) {
	rng := rand.New(rand.NewSource(seed)) //myproxy:allow weakrand seeded workload schedule; the same seed must give the same operations
	var deck []opKind
	for kind, n := range m {
		for i := 0; i < n; i++ {
			deck = append(deck, opKind(kind))
		}
	}
	sched := make([][]op, workers)
	h := sha256.New()
	for w := range sched {
		var owned []uint16
		for u := w; u < users; u += workers {
			owned = append(owned, uint16(u))
		}
		ops := make([]op, 0, scheduleLen+2*len(deck))
		for len(ops) < scheduleLen {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			for _, kind := range deck {
				user := owned[rng.Intn(len(owned))]
				ops = append(ops, op{kind, user})
				if kind == opDestroy {
					ops = append(ops, op{opPut, user})
				}
			}
		}
		for _, o := range ops {
			h.Write([]byte{byte(w), byte(o.kind), byte(o.user), byte(o.user >> 8)})
		}
		sched[w] = ops
	}
	return sched, hex.EncodeToString(h.Sum(nil))
}
