std::unordered_map<int64_t, double> totals;      // determinism
std::map<const Node*, int> order;                // determinism: pointer key
auto now = std::chrono::system_clock::now();     // determinism
const int64_t seconds = time(nullptr);           // determinism
// Compliant: a member named like the library, and the steady clock.
spec.map = Map;
auto start = std::chrono::steady_clock::now();
std::map<int64_t, const Node*> by_id;
