// Package report renders experiment results as aligned text tables
// and labelled series — the output format of the benchmark harness that
// regenerates the paper's Table I and Figure 1 and the derived
// experiments' tables.
//
// Determinism contract: rendering is a pure function of the cell
// strings — fixed column sizing, no locale, no host time — which is
// what makes byte-identical table diffs a usable CI gate.
package report
