#include "kb/kb_io.h"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace jocl {
namespace {

Status WriteFailed(const std::string& path) {
  return Status::IOError("write failed: " + path);
}

// One non-empty row of a TSV file, with errors that name the file and the
// row.
struct Row {
  const std::string& path;
  size_t line_number;
  std::vector<std::string> cells;

  Status Error(const std::string& what) const {
    return Status::IOError(path + ":" + std::to_string(line_number) + ": " +
                           what);
  }
  // Parses cells[column] whole as an int64.
  Status Int64(size_t column, int64_t* out) const {
    if (ParseInt64(cells[column], out)) return Status::OK();
    return Error("column " + std::to_string(column + 1) +
                 " is not an int64");
  }
  // Locates a rejected KB write at this row.
  Status Check(const Status& status) const {
    return status.ok() ? status : Error(status.message());
  }
};

// Calls on_row for every non-empty row of the file, stopping at the first
// error.
template <typename OnRow>
Status ForEachRow(const std::string& path, OnRow&& on_row) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    JOCL_RETURN_NOT_OK(on_row(Row{path, line_number, Split(line, '\t')}));
  }
  return Status::OK();
}

}  // namespace

Status SaveCuratedKb(const CuratedKb& kb, const std::string& prefix) {
  {
    std::ofstream out(prefix + ".entities.tsv");
    if (!out.is_open()) return WriteFailed(prefix + ".entities.tsv");
    for (size_t id = 0; id < kb.entity_count(); ++id) {
      out << id << '\t' << kb.entity(static_cast<EntityId>(id)).name << '\n';
    }
    if (!out.good()) return WriteFailed(prefix + ".entities.tsv");
  }
  {
    std::ofstream out(prefix + ".relations.tsv");
    if (!out.is_open()) return WriteFailed(prefix + ".relations.tsv");
    for (size_t id = 0; id < kb.relation_count(); ++id) {
      out << id << '\t' << kb.relation(static_cast<RelationId>(id)).name;
      for (const auto& alias :
           kb.RelationAliases(static_cast<RelationId>(id))) {
        out << '\t' << alias;
      }
      out << '\n';
    }
    if (!out.good()) return WriteFailed(prefix + ".relations.tsv");
  }
  {
    std::ofstream out(prefix + ".facts.tsv");
    if (!out.is_open()) return WriteFailed(prefix + ".facts.tsv");
    for (const Fact& fact : kb.facts()) {
      out << fact.subject << '\t' << fact.relation << '\t' << fact.object
          << '\n';
    }
    if (!out.good()) return WriteFailed(prefix + ".facts.tsv");
  }
  {
    std::ofstream out(prefix + ".anchors.tsv");
    if (!out.is_open()) return WriteFailed(prefix + ".anchors.tsv");
    for (const auto& [surface, entity, count] : kb.AnchorRows()) {
      out << surface << '\t' << entity << '\t' << count << '\n';
    }
    if (!out.good()) return WriteFailed(prefix + ".anchors.tsv");
  }
  return Status::OK();
}

Result<CuratedKb> LoadCuratedKb(const std::string& prefix) {
  CuratedKb kb;
  std::unordered_map<int64_t, EntityId> entity_map;
  std::unordered_map<int64_t, RelationId> relation_map;
  JOCL_RETURN_NOT_OK(ForEachRow(
      prefix + ".entities.tsv", [&](const Row& row) -> Status {
        if (row.cells.size() != 2) return row.Error("expected 2 columns");
        int64_t id = 0;
        JOCL_RETURN_NOT_OK(row.Int64(0, &id));
        entity_map[id] = kb.AddEntity(row.cells[1]);
        return Status::OK();
      }));
  JOCL_RETURN_NOT_OK(ForEachRow(
      prefix + ".relations.tsv", [&](const Row& row) -> Status {
        if (row.cells.size() < 2) return row.Error("expected >= 2 columns");
        int64_t id = 0;
        JOCL_RETURN_NOT_OK(row.Int64(0, &id));
        RelationId relation = kb.AddRelation(row.cells[1]);
        relation_map[id] = relation;
        for (size_t c = 2; c < row.cells.size(); ++c) {
          JOCL_RETURN_NOT_OK(
              row.Check(kb.AddRelationAlias(relation, row.cells[c])));
        }
        return Status::OK();
      }));
  JOCL_RETURN_NOT_OK(ForEachRow(
      prefix + ".facts.tsv", [&](const Row& row) -> Status {
        if (row.cells.size() != 3) return row.Error("expected 3 columns");
        int64_t ids[3] = {};
        for (size_t c = 0; c < 3; ++c) {
          JOCL_RETURN_NOT_OK(row.Int64(c, &ids[c]));
        }
        auto s = entity_map.find(ids[0]);
        auto r = relation_map.find(ids[1]);
        auto o = entity_map.find(ids[2]);
        if (s == entity_map.end() || r == relation_map.end() ||
            o == entity_map.end()) {
          return row.Error("fact references an unknown id");
        }
        return row.Check(kb.AddFact(s->second, r->second, o->second));
      }));
  JOCL_RETURN_NOT_OK(ForEachRow(
      prefix + ".anchors.tsv", [&](const Row& row) -> Status {
        if (row.cells.size() != 3) return row.Error("expected 3 columns");
        int64_t entity = 0;
        int64_t count = 0;
        JOCL_RETURN_NOT_OK(row.Int64(1, &entity));
        JOCL_RETURN_NOT_OK(row.Int64(2, &count));
        auto e = entity_map.find(entity);
        if (e == entity_map.end()) {
          return row.Error("anchor references an unknown entity");
        }
        return row.Check(kb.AddAnchor(row.cells[0], e->second, count));
      }));
  return kb;
}

}  // namespace jocl
