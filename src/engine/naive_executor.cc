#include "engine/naive_executor.h"

#include <algorithm>
#include <numeric>

#include "engine/topk_executor.h"

namespace xk::engine {

Result<std::vector<present::Mtton>> NaiveExecutor::Run(const PreparedQuery& query,
                                                       const QueryOptions& options,
                                                       ExecutionStats* stats,
                                                       Coverage* coverage) {
  // The naive algorithm is exactly the optimized one with the partial-result
  // cache disabled, run inline on the calling thread — every inner loop
  // re-probes the relations ("it may send the same queries multiple times",
  // Section 6).
  QueryOptions naive = options;
  naive.enable_cache = false;
  naive.num_threads = 1;
  TopKExecutor executor;
  return executor.Run(query, naive, stats, coverage);
}

}  // namespace xk::engine
