#ifndef CACHEPORTAL_DB_EXECUTOR_H_
#define CACHEPORTAL_DB_EXECUTOR_H_

#include "common/status.h"
#include "db/database.h"
#include "sql/ast.h"

namespace cacheportal::db {

/// Evaluates SELECT statements against a Database. Planning is simple but
/// real: single-table conjuncts are pushed below the join, and tables join
/// left-deep in FROM order, each row source reached through the
/// access-path chooser (TableAccess: index seek or union, index
/// nested-loop or hash join on an equi-join conjunct, full scan).
/// Aggregates (COUNT/SUM/MIN/MAX/AVG) with optional GROUP BY, DISTINCT,
/// ORDER BY, and LIMIT are applied on top.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  Result<QueryResult> Execute(const sql::SelectStatement& stmt) const;

 private:
  const Database* db_;
};

}  // namespace cacheportal::db

#endif  // CACHEPORTAL_DB_EXECUTOR_H_
