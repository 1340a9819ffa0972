// Package repro is a from-scratch Go reproduction of "An Online Credential
// Repository for the Grid: MyProxy" (Novotny, Tuecke, Welch, HPDC 2001).
//
// The implementation lives under internal/ (see DESIGN.md for the module
// map) and the command-line tools under cmd/. The root tests run those
// tools as the paper's scenarios (Figs. 1–3, store/retrieve, revocation),
// and the per-figure benchmark harness in bench_test.go has its results
// recorded in EXPERIMENTS.md.
package repro
