#ifndef IOLAP_CATALOG_CSV_H_
#define IOLAP_CATALOG_CSV_H_

#include <string>

#include "common/status.h"
#include "core/table.h"

namespace iolap {

/// Options for reading delimited text into a Table.
struct CsvOptions {
  char delimiter = ',';
  /// First row holds column names; otherwise columns are named c0, c1, ...
  bool header = true;
  /// Literal that reads as SQL NULL (in addition to the empty field).
  std::string null_token = "NULL";
  /// Rows sampled to infer column types (int64 ⊂ double ⊂ string).
  size_t type_inference_rows = 100;
};

/// Parses CSV text into a Table, inferring column types from the leading
/// rows: a column is INT64 if every sampled non-null field parses as an
/// integer, DOUBLE if every field parses as a number, STRING otherwise.
/// Quoted fields ("a ""quoted"" field, with comma") are supported.
///
/// Values are never clamped. An integer outside int64 is not an integer,
/// and a number that overflows a double (1e999) is not a number: a sampled
/// column holding one infers DOUBLE or STRING respectively, and a field
/// after the sample that does not fit its column's type is a ParseError. Underflow is
/// ordinary rounding (1e-400 loads as 0), and the literals inf, -inf and
/// nan (as strtod spells them) load as those doubles.
Result<Table> ReadCsv(const std::string& text, const CsvOptions& options = {});

/// Reads a CSV file from disk.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Retry policy for transient ingest failures (I/O hiccups, the
/// csv-read-fault failpoint). Backoff doubles per attempt, capped.
struct CsvRetryOptions {
  int max_attempts = 4;
  double initial_backoff_sec = 0.0;  // 0 in tests: retries stay instant
  double max_backoff_sec = 0.1;
};

/// ReadCsvFile with bounded-exponential-backoff retries. Only *transient*
/// failures (kExecutionError, kInternal) are retried; deterministic ones —
/// missing file, parse error, bad schema — fail immediately, since retrying
/// cannot change their outcome. `attempts`, when non-null, reports how many
/// attempts ran (1 = first try succeeded).
Result<Table> ReadCsvFileWithRetry(const std::string& path,
                                   const CsvOptions& options,
                                   const CsvRetryOptions& retry,
                                   int* attempts = nullptr);

/// Serializes a table back to CSV (round-trips ReadCsv modulo type
/// formatting).
std::string WriteCsv(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace iolap

#endif  // IOLAP_CATALOG_CSV_H_
