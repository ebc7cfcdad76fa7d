// Wholehousecache reproduces §8 of the paper: two local mechanisms that
// could reduce DNS' cost. First, a whole-house cache in the home router —
// how many blocked (SC/R) connections would a TTL-honoring shared cache
// convert to local-cache hits? Second, speculative refreshing of expiring
// entries (Table 3) — a spectacular hit rate for a spectacular query
// load.
package main

import (
	"fmt"
	"log"
	"time"

	"dnscontext"
)

func main() {
	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = 30
	cfg.Duration = 8 * time.Hour
	cfg.Seed = 8

	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)

	wh := a.WholeHouse()
	fmt.Println("=== A whole-house cache (paper §8) ===")
	fmt.Printf("blocked connections: %d SC + %d R\n", wh.SCTotal, wh.RTotal)
	fmt.Printf("would move to LC:    %d (%.1f%% of all connections; paper: 9.8%%)\n",
		wh.Moved, 100*wh.MovedFraction)
	fmt.Printf("SC benefiting: %.0f%% (paper: ~22%%)   R benefiting: %.0f%% (paper: ~25%%)\n\n",
		100*wh.SCBenefit, 100*wh.RBenefit)

	fmt.Println("=== Refreshing expiring entries (paper Table 3) ===")
	for _, floor := range []time.Duration{10 * time.Second, 60 * time.Second} {
		rf := a.RefreshSimulation(floor)
		fmt.Printf("\nTTL floor %v (%d DNS-using conns, %d houses, %v window):\n",
			floor, rf.Conns, rf.Houses, rf.Window.Round(time.Minute))
		fmt.Printf("  %-22s %14s %14s\n", "", "Standard", "Refresh All")
		fmt.Printf("  %-22s %14d %14d\n", "DNS lookups", rf.Standard.Lookups, rf.RefreshAll.Lookups)
		fmt.Printf("  %-22s %14.3f %14.3f\n", "Lookups/sec/house",
			rf.Standard.LookupsPerSecPerHouse, rf.RefreshAll.LookupsPerSecPerHouse)
		fmt.Printf("  %-22s %13.1f%% %13.1f%%\n", "Cache hits", 100*rf.Standard.HitRate, 100*rf.RefreshAll.HitRate)
		fmt.Printf("  cost multiplier: %.0fx (paper: ~144x at the 10s floor)\n", rf.LookupMultiplier)
	}
	fmt.Println("\nAs the paper concludes: near-perfect hit rates are achievable, but the")
	fmt.Println("query load seems impractical — the open question is getting the hit rate")
	fmt.Println("without the cost.")
}
