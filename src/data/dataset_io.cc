#include "data/dataset_io.h"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <unordered_set>

#include "util/string_util.h"

namespace jocl {

Status SaveTriplesTsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  std::unordered_set<size_t> validation(dataset.validation_triples.begin(),
                                        dataset.validation_triples.end());
  for (size_t t = 0; t < dataset.okb.size(); ++t) {
    const OieTriple& triple = dataset.okb.triple(t);
    out << triple.subject << '\t' << triple.predicate << '\t'
        << triple.object << '\t' << dataset.gold_subject_entity[t] << '\t'
        << dataset.gold_relation[t] << '\t' << dataset.gold_object_entity[t]
        << '\t' << dataset.gold_np_group[t * 2] << '\t'
        << dataset.gold_np_group[t * 2 + 1] << '\t'
        << dataset.gold_rp_group[t] << '\t'
        << (validation.count(t) > 0 ? "validation" : "test") << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> LoadTriplesTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  Dataset dataset;
  dataset.name = path;
  std::string line;
  size_t line_number = 0;
  auto row_error = [&](const std::string& what) {
    return Status::IOError(path + ":" + std::to_string(line_number) + ": " +
                           what);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> cells = Split(line, '\t');
    if (cells.size() != 10) {
      return row_error("expected 10 columns, got " +
                       std::to_string(cells.size()));
    }
    int64_t labels[6] = {};
    for (size_t c = 0; c < 6; ++c) {
      if (!ParseInt64(cells[3 + c], &labels[c])) {
        return row_error("column " + std::to_string(4 + c) +
                         " is not an int64 gold label");
      }
    }
    Status st = dataset.okb.AddTriple(cells[0], cells[1], cells[2]);
    if (!st.ok()) return row_error(st.message());
    dataset.gold_subject_entity.push_back(labels[0]);
    dataset.gold_relation.push_back(labels[1]);
    dataset.gold_object_entity.push_back(labels[2]);
    dataset.gold_np_group.push_back(labels[3]);
    dataset.gold_np_group.push_back(labels[4]);
    dataset.gold_rp_group.push_back(labels[5]);
    size_t triple_index = dataset.okb.size() - 1;
    if (cells[9] == "validation") {
      dataset.validation_triples.push_back(triple_index);
    } else {
      dataset.test_triples.push_back(triple_index);
    }
  }
  return dataset;
}

}  // namespace jocl
