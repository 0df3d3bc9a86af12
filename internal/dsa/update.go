package dsa

// UpdateStats reports the cost of applying one single-op update — the
// paper's acknowledged weakness: "the disadvantage of the
// disconnection set approach is mainly due to the pre-processing
// required for building the complementary information and to the
// careful treatment of updates. … As long as updates are not too
// frequent, the pre-processing costs may be amortized over many
// queries" (§2.1). Batched callers get the richer BatchStats from
// Apply.
type UpdateStats struct {
	// RecomputedSets is the number of disconnection sets whose
	// complementary information was recomputed.
	RecomputedSets int
	// DijkstraRuns is the number of global single-source searches the
	// update triggered.
	DijkstraRuns int
	// LocalOnly reports that the update stayed within one site (no
	// complementary information could have changed).
	LocalOnly bool
}
