// Command logistics shows personalization rules beyond the paper's worked
// examples, using the same machinery: a logistics planner's profile pulls
// the Highway LINE layer into their model, restricts analysis to stores
// within 10 km of a highway (a line-distance condition), summarizes the
// selected stores per city (spatial aggregation: centroid, bounds, convex
// hull), and exports the personalized map as GeoJSON.
//
// Run with: go run ./examples/logistics [-geojson out.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"sdwp"
	"sdwp/internal/export"
)

const logisticsRules = `
// Schema rule: planners think in terms of the road network.
Rule:roadNetwork When SessionStart do
  If (SUS.DecisionMaker.dm2role.name = 'LogisticsPlanner') then
    AddLayer('Highway', LINE)
    BecomeSpatial(MD.Sales.Store.geometry, POINT)
  endIf
endWhen

// Instance rule: only stores that trucks can actually reach matter.
Rule:reachableStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, GeoMD.Highway.geometry) < 10km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
`

func main() {
	geojsonOut := flag.String("geojson", "", "write the personalized map to this file")
	flag.Parse()

	ds, err := sdwp.GenerateData(sdwp.DefaultDataConfig())
	if err != nil {
		log.Fatal(err)
	}
	users, err := sdwp.NewSalesUserStore(map[string]string{"erik": "LogisticsPlanner"})
	if err != nil {
		log.Fatal(err)
	}
	engine := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{})
	defer engine.Close()
	if _, err := engine.AddRules(logisticsRules); err != nil {
		log.Fatal(err)
	}

	s, err := engine.StartSession("erik", ds.CityLocs[2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schema delta:")
	for _, d := range s.Schema().Diff(engine.Cube().Schema()) {
		fmt.Println("  " + d)
	}
	mask := s.View().LevelMask("Store", "Store")
	fmt.Printf("stores within 10 km of a highway: %d of %d\n", mask.Count(), len(ds.StoreLocs))

	// Spatial aggregation: where do the reachable stores cluster?
	rows, err := engine.Cube().SpatialSummary("Store", "Store", "City", s.View())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %7s %22s %8s\n", "city", "stores", "centroid (lon,lat)", "hull")
	shown := 0
	for _, r := range rows {
		fmt.Printf("%-10s %7d %11.3f,%8.3f %8s\n",
			r.Group, r.Count, r.Centroid.X, r.Centroid.Y, r.Hull.Type())
		shown++
		if shown == 8 {
			fmt.Printf("… (%d more cities)\n", len(rows)-shown)
			break
		}
	}

	// The planner's freight-volume analysis over the reachable network.
	res, err := s.Query(sdwp.Query{
		Fact:       "Sales",
		GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: "State"}},
		Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreachable freight volume by state (%d of %d facts):\n",
		res.MatchedFacts, engine.Cube().FactData("Sales").Len())
	for _, row := range res.Rows {
		fmt.Printf("  %-10s %9.0f\n", row.Groups[0], row.Values[0])
	}

	// Export the personalized map (simplified highways, selected stores).
	raw, err := export.Session(s, export.Options{SimplifyTolerance: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGeoJSON export: %d features", export.CountFeatures(raw))
	if *geojsonOut != "" {
		var data bytes.Buffer
		if err := json.Indent(&data, bytes.TrimSuffix(raw, []byte("\n")), "", "  "); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*geojsonOut, data.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" → %s", *geojsonOut)
	}
	fmt.Println()
}
