// Command sdwctl is the warehouse operator's toolbox:
//
//	sdwctl schema                       render the Fig. 2 base schema
//	sdwctl gen [-seed N -stores N ...]  generate a dataset and print stats
//	sdwctl check FILE.prml              parse + statically analyze rules
//	sdwctl fmt FILE.prml                reprint rules in canonical form
//	sdwctl map [-user U -svg map.svg]     render a session's personalized map
//	sdwctl simulate [-user U -role R -lon X -lat Y]
//	                                    run a personalized session and show
//	                                    the schema delta, view and a query
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"sdwp"
	"sdwp/internal/datagen"
	"sdwp/internal/export"
	"sdwp/internal/prml"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdwctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "schema":
		fmt.Print(sdwp.SalesSchema().Render())
	case "gen":
		cmdGen(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:], false)
	case "fmt":
		cmdCheck(os.Args[2:], true)
	case "simulate":
		cmdSimulate(os.Args[2:])
	case "map":
		cmdMap(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sdwctl <schema|gen|check|fmt|simulate|map> [flags]")
	os.Exit(2)
}

// cmdMap runs a personalized session and writes its map as SVG (and
// optionally GeoJSON) — the quickest way to *see* what a rule set gives a
// user.
func cmdMap(args []string) {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	user := fs.String("user", "alice", "user id")
	role := fs.String("role", "RegionalSalesManager", "user role characteristic")
	rulesPath := fs.String("rules", "", "PRML rule file (default: paper rules)")
	svgOut := fs.String("svg", "map.svg", "SVG output file")
	geojsonOut := fs.String("geojson", "", "optional GeoJSON output file")
	width := fs.Int("width", 1000, "SVG width in pixels")
	_ = fs.Parse(args)

	ds, err := sdwp.GenerateData(sdwp.DefaultDataConfig())
	if err != nil {
		log.Fatal(err)
	}
	users, err := sdwp.NewSalesUserStore(map[string]string{*user: *role})
	if err != nil {
		log.Fatal(err)
	}
	engine := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{})
	defer engine.Close()
	engine.SetParam("threshold", sdwp.Number(2))
	src := sdwp.PaperRules
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		src = string(data)
	}
	if _, err := engine.AddRules(src); err != nil {
		log.Fatal(err)
	}
	s, err := engine.StartSession(*user, ds.CityLocs[0])
	if err != nil {
		log.Fatal(err)
	}
	svg, err := export.SessionSVG(s, export.SVGOptions{Width: *width})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("map written to %s (%d bytes)\n", *svgOut, len(svg))
	if *geojsonOut != "" {
		raw, err := export.Session(s, export.Options{})
		if err != nil {
			log.Fatal(err)
		}
		var data bytes.Buffer
		if err := json.Indent(&data, bytes.TrimSuffix(raw, []byte("\n")), "", "  "); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*geojsonOut, data.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("geojson written to %s (%d features)\n", *geojsonOut, export.CountFeatures(raw))
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "dataset seed")
	cities := fs.Int("cities", 0, "cities (0 = default)")
	stores := fs.Int("stores", 0, "stores (0 = default)")
	sales := fs.Int("sales", 0, "sales facts (0 = default)")
	out := fs.String("out", "", "write the warehouse snapshot (JSON) to this file")
	_ = fs.Parse(args)

	cfg := sdwp.DefaultDataConfig()
	cfg.Seed = *seed
	if *cities > 0 {
		cfg.Cities = *cities
	}
	if *stores > 0 {
		cfg.Stores = *stores
	}
	if *sales > 0 {
		cfg.Sales = *sales
	}
	ds, err := sdwp.GenerateData(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c := ds.Cube
	fmt.Printf("dimensions:\n")
	for _, d := range c.Schema().MD.Dimensions {
		dd := c.Dimension(d.Name)
		fmt.Printf("  %-10s", d.Name)
		for i := 0; i < dd.NumLevels(); i++ {
			fmt.Printf("  %s=%d", dd.LevelName(i), dd.LevelAt(i).Len())
		}
		fmt.Println()
	}
	fmt.Printf("facts:\n  Sales=%d\n", c.FactData("Sales").Len())
	fmt.Printf("geographic catalog:\n")
	for _, name := range []string{datagen.LayerAirport, datagen.LayerTrain, datagen.LayerHospital, datagen.LayerHighway} {
		if l := c.Layer(name); l != nil {
			fmt.Printf("  %-10s %-6s %d objects\n", name, l.Type(), l.Len())
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.WriteSnapshot(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		info, _ := os.Stat(*out)
		fmt.Printf("snapshot written to %s (%d bytes)\n", *out, info.Size())
	}
}

func cmdCheck(args []string, reprint bool) {
	if len(args) != 1 {
		log.Fatal("check/fmt need exactly one rule file")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		log.Fatal(err)
	}
	rules, err := sdwp.ParseRules(string(data))
	if err != nil {
		log.Fatal(err)
	}
	issues := prml.Analyze(rules, prml.AnalyzeOptions{Params: map[string]bool{"threshold": true}})
	for _, i := range issues {
		fmt.Fprintln(os.Stderr, i.Error())
	}
	if len(issues) > 0 {
		os.Exit(1)
	}
	if reprint {
		fmt.Print(sdwp.FormatRules(rules...))
		return
	}
	for _, r := range rules {
		fmt.Printf("%-20s %-9s when %s\n", r.Name, prml.Classify(r), r.Event.Kind)
	}
	fmt.Printf("%d rules OK\n", len(rules))
}

func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	user := fs.String("user", "alice", "user id")
	role := fs.String("role", "RegionalSalesManager", "user role characteristic")
	lon := fs.Float64("lon", 0, "login longitude (0 = first city)")
	lat := fs.Float64("lat", 0, "login latitude (0 = first city)")
	rulesPath := fs.String("rules", "", "PRML rule file (default: paper rules)")
	_ = fs.Parse(args)

	ds, err := sdwp.GenerateData(sdwp.DefaultDataConfig())
	if err != nil {
		log.Fatal(err)
	}
	users, err := sdwp.NewSalesUserStore(map[string]string{*user: *role})
	if err != nil {
		log.Fatal(err)
	}
	engine := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{})
	defer engine.Close()
	engine.SetParam("threshold", sdwp.Number(2))
	src := sdwp.PaperRules
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		src = string(data)
	}
	if _, err := engine.AddRules(src); err != nil {
		log.Fatal(err)
	}

	loc := ds.CityLocs[0]
	if *lon != 0 || *lat != 0 {
		loc = sdwp.Pt(*lon, *lat)
	}
	s, err := engine.StartSession(*user, loc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session for %s (%s) at %s\n", *user, *role, loc.WKT())
	fmt.Println("schema delta:")
	diff := s.Schema().Diff(engine.Cube().Schema())
	if len(diff) == 0 {
		fmt.Println("  (none)")
	}
	for _, d := range diff {
		fmt.Println("  " + d)
	}
	if mask := s.View().LevelMask("Store", "Store"); mask != nil {
		fmt.Printf("stores selected: %d\n", mask.Count())
	}
	res, err := s.Query(sdwp.Query{
		Fact:       "Sales",
		GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}, {Agg: sdwp.COUNT}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("personalized sales by city (%d of %d facts):\n", res.MatchedFacts, engine.Cube().FactData("Sales").Len())
	for _, row := range res.Rows {
		fmt.Printf("  %-10s sum=%-9.0f n=%.0f\n", row.Groups[0], row.Values[0], row.Values[1])
	}
}
