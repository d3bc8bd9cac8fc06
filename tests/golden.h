// Golden transcript files under tests/golden/. Each file is a sequence of
// records: a "### <key>" header line followed by the record's text, which
// runs up to the next header. The records were frozen from a build that
// still had a second, independent join path and in which both paths, at
// one and at four evaluation threads, produced exactly these bytes.
#ifndef HILOG_TESTS_GOLDEN_H_
#define HILOG_TESTS_GOLDEN_H_

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#ifndef HILOG_SOURCE_DIR
#define HILOG_SOURCE_DIR "."
#endif

namespace hilog::testing {

using GoldenFile = std::map<std::string, std::string>;

// Reads tests/golden/<name>; an unreadable file yields no records, so
// every lookup then fails with a named missing record.
inline GoldenFile ReadGolden(const std::string& name) {
  std::ifstream in(std::string(HILOG_SOURCE_DIR) + "/tests/golden/" + name);
  GoldenFile records;
  std::string line;
  std::string* body = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      body = &records[line.substr(4)];
      continue;
    }
    if (body != nullptr) *body += line + "\n";
  }
  return records;
}

inline std::string GoldenRecord(const GoldenFile& golden,
                                const std::string& key) {
  auto it = golden.find(key);
  return it == golden.end() ? "<no golden record \"" + key + "\">"
                            : it->second;
}

}  // namespace hilog::testing

#endif  // HILOG_TESTS_GOLDEN_H_
