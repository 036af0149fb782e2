// Package experiments contains one runnable reproduction per table and
// figure of the paper's evaluation (§6), plus the ablations DESIGN.md
// calls out, the multi-controller cluster scenarios (§7), and the chaos
// scenarios that drive the §5 reliability mechanisms through injected
// faults. Every point of an experiment is one spec value holding its rig,
// seed, horizon, standard traffic and fault plan; build turns it into a
// world on a fresh simulation engine, and the experiment prints the same
// rows/series the paper reports. EXPERIMENTS.md records paper-vs-measured
// for each.
package experiments
