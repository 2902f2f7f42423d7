package coconut

import (
	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/workload"
)

// BenchmarkName identifies one of the six benchmarks in the paper's
// evaluation grid (Figure 3's rows).
type BenchmarkName string

// The six benchmarks, in paper order. Benchmark units run in sequence:
// KeyValue-Set precedes KeyValue-Get; the BankingApp unit runs
// CreateAccount, then SendPayment, then Balance (§4.1).
const (
	BenchDoNothing     BenchmarkName = "DoNothing"
	BenchKeyValueSet   BenchmarkName = "KeyValue-Set"
	BenchKeyValueGet   BenchmarkName = "KeyValue-Get"
	BenchCreateAccount BenchmarkName = "BankingApp-CreateAccount"
	BenchSendPayment   BenchmarkName = "BankingApp-SendPayment"
	BenchBalance       BenchmarkName = "BankingApp-Balance"
)

// AllBenchmarks lists the grid rows in paper order.
var AllBenchmarks = []BenchmarkName{
	BenchDoNothing,
	BenchKeyValueSet,
	BenchKeyValueGet,
	BenchCreateAccount,
	BenchSendPayment,
	BenchBalance,
}

// BenchmarkUnits groups benchmarks into the paper's units: a unit's members
// run back-to-back on the same freshly provisioned system (§4.1).
var BenchmarkUnits = [][]BenchmarkName{
	{BenchDoNothing},
	{BenchKeyValueSet, BenchKeyValueGet},
	{BenchCreateAccount, BenchSendPayment, BenchBalance},
}

// OpGen generates the i-th operation for one workload thread. Key spaces
// are partitioned per thread so "no duplicates occur during writing"
// (§4.1); reads target keys the preceding unit member wrote.
type OpGen func(i uint64) chain.Operation

// NewOpGen builds the operation generator for a benchmark and workload
// thread. threadKey must be unique per (client, thread) pair.
func NewOpGen(b BenchmarkName, threadKey string) OpGen {
	switch b {
	case BenchDoNothing:
		return func(uint64) chain.Operation {
			return chain.Operation{IEL: iel.DoNothingName, Function: iel.FnDoNothing}
		}
	case BenchKeyValueSet:
		return func(i uint64) chain.Operation {
			return chain.Operation{
				IEL:      iel.KeyValueName,
				Function: iel.FnSet,
				Args:     []string{kvKey(threadKey, i), workload.KVValue(i)},
			}
		}
	case BenchKeyValueGet:
		return func(i uint64) chain.Operation {
			return chain.Operation{
				IEL:      iel.KeyValueName,
				Function: iel.FnGet,
				Args:     []string{kvKey(threadKey, i)},
			}
		}
	case BenchCreateAccount:
		return func(i uint64) chain.Operation {
			return chain.Operation{
				IEL:      iel.BankingAppName,
				Function: iel.FnCreateAccount,
				Args:     []string{accountKey(threadKey, i), "1000", "1000"},
			}
		}
	case BenchSendPayment:
		// Payment from account n to account n+1 (§4.1), provoking
		// overwriting transactions.
		return func(i uint64) chain.Operation {
			return chain.Operation{
				IEL:      iel.BankingAppName,
				Function: iel.FnSendPayment,
				Args:     []string{accountKey(threadKey, i), accountKey(threadKey, i+1), "1"},
			}
		}
	case BenchBalance:
		return func(i uint64) chain.Operation {
			return chain.Operation{
				IEL:      iel.BankingAppName,
				Function: iel.FnBalance,
				Args:     []string{accountKey(threadKey, i)},
			}
		}
	default:
		return func(uint64) chain.Operation {
			return chain.Operation{IEL: iel.DoNothingName, Function: iel.FnDoNothing}
		}
	}
}

// Key formatting is owned by the workload package, which generalizes this
// partitioned scheme into the contention plane's pluggable distributions;
// delegating keeps both generator planes on one addressing convention.
func kvKey(threadKey string, i uint64) string {
	return workload.PartitionedKVKey(threadKey, i)
}

func accountKey(threadKey string, i uint64) string {
	return workload.PartitionedAccountKey(threadKey, i)
}

// ReadBenchmarkDependsOnWrite reports the unit member whose writes a read
// benchmark consumes, or "" when independent. The runner uses it to bound
// read indices to what was actually written.
func ReadBenchmarkDependsOnWrite(b BenchmarkName) BenchmarkName {
	switch b {
	case BenchKeyValueGet:
		return BenchKeyValueSet
	case BenchSendPayment, BenchBalance:
		return BenchCreateAccount
	default:
		return ""
	}
}
