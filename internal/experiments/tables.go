package experiments

import (
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
)

// TableRow is one row of a paper table: a parameter point with the paper's
// reported values — MTPS/MFLS from the odd-numbered table, Received/Expected
// NoT from the even-numbered companion.
type TableRow struct {
	Params Params
	Paper  PaperRefValues
}

// Table is one paper table pair (metrics table + NoT table).
type Table struct {
	ID        string
	Title     string
	System    string
	Benchmark coconut.BenchmarkName
	Rows      []TableRow
}

// Tables lists every table pair of the paper's results section (§5).
var Tables = []Table{
	{
		ID: "7+8", Title: "Corda OS — KeyValue-Set",
		System: systems.NameCordaOS, Benchmark: coconut.BenchKeyValueSet,
		Rows: []TableRow{
			{Params: Params{RL: 20}, Paper: PaperRefValues{MTPS: 4.08, MFLS: 151.93, Received: 1439, Expected: 6000}},
			{Params: Params{RL: 160}, Paper: PaperRefValues{MTPS: 1.04, MFLS: 227.39, Received: 374.33, Expected: 48000}},
		},
	},
	{
		ID: "9+10", Title: "Corda Enterprise — KeyValue-Set",
		System: systems.NameCordaEnt, Benchmark: coconut.BenchKeyValueSet,
		Rows: []TableRow{
			{Params: Params{RL: 20}, Paper: PaperRefValues{MTPS: 12.84, MFLS: 22.81, Received: 4249.67, Expected: 6000}},
			{Params: Params{RL: 160}, Paper: PaperRefValues{MTPS: 13.51, MFLS: 31.59, Received: 4571, Expected: 48000}},
		},
	},
	{
		ID: "11+12", Title: "BitShares — DoNothing",
		System: systems.NameBitShares, Benchmark: coconut.BenchDoNothing,
		Rows: []TableRow{
			{Params: Params{RL: 1600, BI: 1, Actions: 100}, Paper: PaperRefValues{MTPS: 1599.89, MFLS: 1.09, Received: 487966.67, Expected: 480000}},
		},
	},
	{
		ID: "13+14", Title: "Fabric — BankingApp-SendPayment",
		System: systems.NameFabric, Benchmark: coconut.BenchSendPayment,
		Rows: []TableRow{
			{Params: Params{RL: 800, MM: 100}, Paper: PaperRefValues{MTPS: 801.36, MFLS: 0.22, Received: 240140.67, Expected: 240000}},
			{Params: Params{RL: 1600, MM: 100}, Paper: PaperRefValues{MTPS: 1285.29, MFLS: 6.66, Received: 408749, Expected: 480000}},
		},
	},
	{
		ID: "15+16", Title: "Quorum — BankingApp-Balance",
		System: systems.NameQuorum, Benchmark: coconut.BenchBalance,
		Rows: []TableRow{
			// The paper's liveness violation: blockperiod <= 2s + load ->
			// the queue is never processed again, zero transactions.
			{Params: Params{RL: 1600, BP: 2}, Paper: PaperRefValues{MTPS: 0, MFLS: 0, Received: 0, Expected: 120000}},
			{Params: Params{RL: 400, BP: 5}, Paper: PaperRefValues{MTPS: 365.85, MFLS: 12.34, Received: 69476.33, Expected: 120000}},
		},
	},
	{
		ID: "17+18", Title: "Sawtooth — BankingApp-CreateAccount",
		System: systems.NameSawtooth, Benchmark: coconut.BenchCreateAccount,
		Rows: []TableRow{
			{Params: Params{RL: 200, PD: 1, Actions: 100}, Paper: PaperRefValues{MTPS: 66.70, MFLS: 26.40, Received: 23033.33, Expected: 60000}},
			{Params: Params{RL: 1600, PD: 1, Actions: 100}, Paper: PaperRefValues{MTPS: 14.27, MFLS: 238.45, Received: 4666.67, Expected: 480000}},
			{Params: Params{RL: 200, PD: 10, Actions: 100}, Paper: PaperRefValues{MTPS: 67.57, MFLS: 25.84, Received: 23266.67, Expected: 60000}},
			{Params: Params{RL: 1600, PD: 10, Actions: 100}, Paper: PaperRefValues{MTPS: 15.65, MFLS: 225.73, Received: 5133.33, Expected: 480000}},
		},
	},
	{
		ID: "19+20", Title: "Diem — KeyValue-Get",
		System: systems.NameDiem, Benchmark: coconut.BenchKeyValueGet,
		Rows: []TableRow{
			{Params: Params{RL: 200, BS: 100}, Paper: PaperRefValues{MTPS: 38.32, MFLS: 67.97, Received: 7365.33, Expected: 60000}},
			{Params: Params{RL: 1600, BS: 100}, Paper: PaperRefValues{MTPS: 11.83, MFLS: 81.30, Received: 3887.67, Expected: 480000}},
			{Params: Params{RL: 200, BS: 2000}, Paper: PaperRefValues{MTPS: 64.22, MFLS: 107.78, Received: 16752.67, Expected: 60000}},
			{Params: Params{RL: 1600, BS: 2000}, Paper: PaperRefValues{MTPS: 36.65, MFLS: 150.35, Received: 11172.67, Expected: 480000}},
		},
	},
}

// TableByID finds a table definition by its paper number ("7+8", ...).
func TableByID(id string) (Table, bool) {
	for _, t := range Tables {
		if t.ID == id {
			return t, true
		}
	}
	return Table{}, false
}
