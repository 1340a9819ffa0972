//go:build !linux

package main

import "time"

// The benchmark's process accounting is Linux's; elsewhere it builds and
// runs but reports these as unknown, and keeps its spans on the Go heap.

func cpuTime() time.Duration { return 0 }

func peakRSSMiB() float64 { return 0 }

func fsType(string) string { return "unknown" }

func offHeap(n int) ([]byte, func()) { return make([]byte, n), func() {} }
