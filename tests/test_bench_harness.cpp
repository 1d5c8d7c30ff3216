// Pins the bench record writer (bench/harness.hpp): the exact JSON line,
// string escaping, null values, row order, and that the printed table and
// the JSON list the same configs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"

namespace qc::bench {
namespace {

constexpr const char* kAwkward = "q\"b\\s\nn";  // quote, backslash, newline

Record two_rows() {
  Record rec("demo");
  rec.host = Host{2, "cc 1.0", "Debug"};
  rec.param("graph", kAwkward).param("n", 8);
  rec.row(kAwkward).add("ms", Value(1.5, 2)).add("ok", true);
  rec.row("plain").add("ms", Value()).add("count", std::uint64_t{7});
  return rec;
}

std::string table_of(const Record& rec) {
  std::ostringstream os;
  rec.print_table(os);
  return os.str();
}

/// The first cell of every body line of a printed table.
std::vector<std::string> table_configs(const std::string& table) {
  std::vector<std::string> configs;
  std::istringstream in(table);
  std::string line;
  int borders = 0;
  while (std::getline(in, line)) {
    if (line.rfind("+", 0) == 0) {
      ++borders;
    } else if (borders == 2) {  // between the header rule and the bottom
      std::string cell = line.substr(2, line.find('|', 1) - 2);
      cell.erase(cell.find_last_not_of(' ') + 1);
      configs.push_back(cell);
    }
  }
  return configs;
}

/// The "config" value of every row of a record line whose configs need no
/// escaping.
std::vector<std::string> json_configs(const std::string& json) {
  std::vector<std::string> configs;
  const std::string key = "\"config\":\"";
  for (auto at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    at += key.size();
    const auto end = json.find('"', at);
    configs.push_back(json.substr(at, end - at));
  }
  return configs;
}

TEST(BenchRecord, ExactLineWithEscapedConfigAndParam) {
  EXPECT_EQ(two_rows().json(),
            R"({"bench":"demo",)"
            R"("host":{"cpus":2,"compiler":"cc 1.0","build_type":"Debug"},)"
            R"("params":{"graph":"q\"b\\s\nn","n":8},)"
            R"("rows":[{"config":"q\"b\\s\nn","ms":1.50,"ok":true},)"
            R"({"config":"plain","ms":null,"count":7}]})");
}

TEST(BenchRecord, AbsentValueIsNullInJsonAndDashInTable) {
  Record rec("demo");
  rec.row("a").add("x", Value()).add("y", 1);
  rec.row("b").add("y", 2);  // no "x" at all
  rec.row("c").add("x", Value(std::nan(""), 3)).add("y", 3);
  EXPECT_NE(rec.json().find(R"({"config":"a","x":null,"y":1})"),
            std::string::npos);
  EXPECT_NE(rec.json().find(R"({"config":"c","x":null,"y":3})"),
            std::string::npos);
  const std::string table = table_of(rec);
  EXPECT_NE(table.find("| a      | - | 1 |"), std::string::npos) << table;
  EXPECT_NE(table.find("| b      | - | 2 |"), std::string::npos) << table;
  EXPECT_NE(table.find("| c      | - | 3 |"), std::string::npos) << table;
}

TEST(BenchRecord, RowsAndKeysKeepInsertionOrder) {
  Record rec("demo");
  for (const char* c : {"zeta", "alpha", "mid"}) {
    rec.row(c).add("k2", 2).add("k1", 1);
  }
  const std::vector<std::string> order = {"zeta", "alpha", "mid"};
  EXPECT_EQ(json_configs(rec.json()), order);
  EXPECT_EQ(table_configs(table_of(rec)), order);
  EXPECT_NE(rec.json().find(R"({"config":"zeta","k2":2,"k1":1})"),
            std::string::npos);
}

TEST(BenchRecord, SettingAKeyAgainReplacesItInPlace) {
  Record rec("demo");
  rec.row("r").add("a", 1).add("b", 2).add("a", 3);
  EXPECT_NE(rec.json().find(R"({"config":"r","a":3,"b":2})"),
            std::string::npos);
}

TEST(BenchRecord, TableAndJsonListTheSameConfigs) {
  Record rec("demo");
  rec.row("seq").add("ms", Value(1.0, 1));
  rec.row("shard_w2").add("ms", Value(2.0, 1)).add("arcs", 10);
  rec.row("resident query").add("p50_us", Value(3.0, 1));
  const auto configs = json_configs(rec.json());
  EXPECT_EQ(configs.size(), 3u);
  EXPECT_EQ(table_configs(table_of(rec)), configs);
}

}  // namespace
}  // namespace qc::bench
