package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sdwp/internal/datagen"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

// Pure rule loops (prml plan.go) are memoized per cube data generation:
// the first login runs TrainAirportCity's loop, later logins replay its
// selections. These tests mutate the warehouse between and during logins
// and hold every login to the reference interpreter or to a serial login.

// bigCityStoresRule is a pure loop that reads a non-descriptor attribute
// through roll-up navigation, so SetMemberAttr has a memoized reader.
const bigCityStoresRule = `
Rule:bigCityStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (s.City.population > 2900000) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
`

// airportCitySelection is the selection that raises a manager's
// airport-city degree (IntAirportCity).
const airportCitySelection = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"

// memberSelected reports whether the session's view selects a member.
func memberSelected(s *Session, dim, level string, m int32) bool {
	mask := s.View().LevelMask(dim, level)
	return mask != nil && mask.Test(int(m))
}

// TestRuleMemoMatchesReference logs a primed manager in again and again
// while every mutator of dimension and layer data changes what the pure
// loops select; each login must match the reference interpreter, which
// has no memo. A mutator that did not move the data generation would
// leave the plan side replaying the previous login's selections.
func TestRuleMemoMatchesReference(t *testing.T) {
	ds := diffDataset(t)
	c := ds.Cube
	d := newPlanDiff(t, c, Options{}, paperRules+bigCityStoresRule)
	loc := ds.CityLocs[0]
	ps, rs, _ := d.login(t, "alice", loc)
	for i := 0; i < 3; i++ {
		d.selectBoth(t, ps, rs, "GeoMD.Store.City", airportCitySelection)
	}
	login := func(t *testing.T) *Session {
		t.Helper()
		ps, _, runs := d.login(t, "alice", loc)
		for _, r := range runs {
			if r.Err != "" {
				t.Fatalf("rule %s: %s", r.Rule, r.Err)
			}
		}
		return ps
	}
	// The first login records, the second replays.
	login(t)
	s := login(t)

	// on is a city TrainAirportCity selects; off is one it does not, with
	// an airport within 40 km.
	cities := c.Dimension("Store").Level("City")
	var on, off int32 = -1, -1
	var offAirport geom.Point
	for m := int32(0); int(m) < cities.Len(); m++ {
		if memberSelected(s, "Store", "City", m) {
			on = m
			continue
		}
		for _, a := range ds.AirportLocs {
			if off < 0 && geom.GeodeticDistance(cities.Geometry(m), a) < 40 {
				off, offAirport = m, a
			}
		}
	}
	if on < 0 || off < 0 {
		t.Fatalf("want a city TrainAirportCity selects (%d) and one near an airport it does not (%d)", on, off)
	}
	setGeometry := func(t *testing.T, m int32, g geom.Geometry) {
		t.Helper()
		if err := c.SetMemberGeometry("Store", "City", m, g); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("SetMemberGeometry", func(t *testing.T) {
		home := cities.Geometry(off)
		setGeometry(t, off, cities.Geometry(on)) // onto the selected city's line
		if s := login(t); !memberSelected(s, "Store", "City", off) {
			t.Fatalf("city %d moved onto a train line is not selected", off)
		}
		login(t)
		setGeometry(t, off, home) // and off it again
		if s := login(t); memberSelected(s, "Store", "City", off) {
			t.Fatalf("city %d moved off the train line is still selected", off)
		}
		login(t)
	})

	t.Run("AddLayerObject", func(t *testing.T) {
		// A line from the city to its nearby airport: the stretch between
		// them is under 50 km.
		shuttle := geom.Line{Pts: []geom.Point{cities.Geometry(off).(geom.Point), offAirport}}
		if _, err := c.AddLayerObject(datagen.LayerTrain, "Shuttle", shuttle); err != nil {
			t.Fatal(err)
		}
		if s := login(t); !memberSelected(s, "Store", "City", off) {
			t.Fatalf("city %d on the new shuttle line is not selected", off)
		}
		login(t)
	})

	t.Run("AddMember", func(t *testing.T) {
		m, err := c.AddMember("Store", "City", "Newtown", 0)
		if err != nil {
			t.Fatal(err)
		}
		// A city without geometry fails TrainAirportCity's loop: the
		// reference errors, so the plan side must not replay.
		if _, _, runs := d.login(t, "alice", loc); runs[len(runs)-1].Err == "" {
			t.Fatalf("login over a city without geometry: %+v, want an error", runs)
		}
		setGeometry(t, m, cities.Geometry(on))
		if s := login(t); !memberSelected(s, "Store", "City", m) {
			t.Fatalf("new city %d on a train line is not selected", m)
		}
		login(t)
	})

	t.Run("SetMemberAttr", func(t *testing.T) {
		stores := c.Dimension("Store").Level("Store")
		var store, city int32 = -1, -1
		for st := int32(0); int(st) < stores.Len(); st++ {
			if pop, _ := cities.Attr("population", stores.Parent(st)); pop.(float64) <= 2900000 {
				store, city = st, stores.Parent(st)
				break
			}
		}
		if store < 0 {
			t.Fatal("every store's city is past bigCityStores' threshold")
		}
		if s := login(t); memberSelected(s, "Store", "Store", store) {
			t.Fatalf("store %d is selected before its city grows", store)
		}
		if err := c.SetMemberAttr("Store", "City", city, "population", 3000000.0); err != nil {
			t.Fatal(err)
		}
		if s := login(t); !memberSelected(s, "Store", "Store", store) {
			t.Fatalf("store %d of a grown city is not selected", store)
		}
		login(t)
	})

	t.Run("schema without the Airport layer", func(t *testing.T) {
		login(t) // memoized under alice's schema
		// Without addSpatiality, GeoMD.Airport names nothing in the
		// session's schema: the loop must run and fail as the
		// reference's does, not replay.
		d.both(func(e *Engine) { e.RemoveRule("addSpatiality") })
		_, _, runs := d.login(t, "alice", loc)
		if last := runs[len(runs)-1]; last.Rule != "TrainAirportCity" || last.Err == "" {
			t.Fatalf("login without the Airport layer: %+v, want TrainAirportCity to fail", runs)
		}
	})
}

// TestConcurrentLoginsShareRuleMemo logs primed managers in from several
// goroutines while another moves a city onto and off a train line. Every
// login must leave the view a serial login leaves at one of the two
// geometries, and once the mover stops, a login must see the final one:
// a memo recorded from data that changed under it is never replayed.
func TestConcurrentLoginsShareRuleMemo(t *testing.T) {
	ds := diffDataset(t)
	c := ds.Cube
	users := []string{"alice", "carol", "dave"}
	roles := map[string]string{}
	for _, u := range users {
		roles[u] = "RegionalSalesManager"
	}
	store, err := datagen.NewUserStore(roles)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, store, Options{})
	t.Cleanup(e.Close)
	e.SetParam("threshold", prml.NumberVal(2))
	if _, err := e.AddRules(paperRules); err != nil {
		t.Fatal(err)
	}
	locs := map[string]geom.Geometry{}
	for i, u := range users {
		locs[u] = ds.CityLocs[i]
		s, err := e.StartSession(u, locs[u])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := s.SpatialSelect("GeoMD.Store.City", airportCitySelection); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.EndSession(s); err != nil {
			t.Fatal(err)
		}
	}

	// Serial logins at both geometries of the moving city.
	cities := c.Dimension("Store").Level("City")
	probe, err := e.StartSession(users[0], locs[users[0]])
	if err != nil {
		t.Fatal(err)
	}
	var on, off int32 = -1, -1
	for m := int32(0); int(m) < cities.Len(); m++ {
		if memberSelected(probe, "Store", "City", m) {
			on = m
		} else if off < 0 {
			off = m
		}
	}
	if on < 0 || off < 0 {
		t.Fatalf("TrainAirportCity should select some cities and not others")
	}
	geoms := []geom.Geometry{cities.Geometry(off), cities.Geometry(on)}
	serial := make([]map[string]*Session, len(geoms))
	for i, g := range geoms {
		if err := c.SetMemberGeometry("Store", "City", off, g); err != nil {
			t.Fatal(err)
		}
		serial[i] = map[string]*Session{}
		for _, u := range users {
			if serial[i][u], err = e.StartSession(u, locs[u]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !memberSelected(serial[1][users[0]], "Store", "City", off) ||
		memberSelected(serial[0][users[0]], "Store", "City", off) {
		t.Fatalf("moving city %d does not change what TrainAirportCity selects", off)
	}
	// moves is even while no move is under way, and moves/2 counts the
	// moves made: move k leaves the city at geoms[k%2].
	if err := c.SetMemberGeometry("Store", "City", off, geoms[0]); err != nil {
		t.Fatal(err)
	}
	var moves atomic.Int64
	checkLogin := func(u string) error {
		before := moves.Load()
		s, err := e.StartSession(u, locs[u])
		if err != nil {
			return err
		}
		if before == moves.Load() && before%2 == 0 {
			// No move overlapped the login: it sees the current geometry.
			if diff := sessionDiff(s, serial[before/2%2][u]); diff != "" {
				return fmt.Errorf("%s after %d moves: %s", u, before/2, diff)
			}
		} else if sessionDiff(s, serial[0][u]) != "" && sessionDiff(s, serial[1][u]) != "" {
			return fmt.Errorf("%s's view matches no serial login: %s", u, sessionDiff(s, serial[0][u]))
		}
		return e.EndSession(s)
	}

	// The mover moves the city once per finished login, so logins both
	// overlap moves and run between them.
	logins := make(chan struct{}, 1)
	moved := make(chan error, 1)
	go func() {
		var err error
		defer func() { moved <- err }()
		for k := 1; ; k++ {
			if _, ok := <-logins; !ok {
				return
			}
			moves.Add(1)
			err = c.SetMemberGeometry("Store", "City", off, geoms[k%2])
			moves.Add(1)
			if err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := checkLogin(u); err != nil {
					t.Error(err)
					return
				}
				select {
				case logins <- struct{}{}:
				default:
				}
			}
		}(u)
	}
	wg.Wait()
	close(logins)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if moves.Load() == 0 {
		t.Fatal("the city never moved")
	}

	for i, g := range geoms {
		if err := c.SetMemberGeometry("Store", "City", off, g); err != nil {
			t.Fatal(err)
		}
		for _, u := range users {
			s, err := e.StartSession(u, locs[u])
			if err != nil {
				t.Fatal(err)
			}
			if diff := sessionDiff(s, serial[i][u]); diff != "" {
				t.Fatalf("%s after the mover stopped at geometry %d: %s", u, i, diff)
			}
		}
	}
}
