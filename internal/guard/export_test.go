package guard

// AsyncDrainCounts reports how many captured chunks the async pipeline
// fed into the guard's process stream and how many it dropped as stale.
func AsyncDrainCounts(g *Guard) (fed, stale uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a := g.main.async; a != nil {
		return a.fed, a.stale
	}
	return 0, 0
}
