#include "catalog/csv.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"

namespace iolap {

namespace {

// Splits one CSV record (supports quoted fields with "" escapes). Returns
// false on an unterminated quote.
bool SplitRecord(const std::string& line, char delimiter,
                 std::vector<std::string>* fields) {
  fields->clear();
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // swallow CR of CRLF
    } else {
      current += c;
    }
  }
  fields->push_back(std::move(current));
  return !in_quotes;
}

// An integer field must fit int64: strtoll clamps an out-of-range one to
// INT64_MIN/MAX and sets ERANGE, and such a field is not an integer.
bool ParsesAsInt(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size() && errno != ERANGE;
}

// A number field must not overflow a double: strtod turns 1e999 into
// +-HUGE_VAL (infinity) and sets ERANGE, and such a field is not a number.
// Underflow (1e-400 reads as 0) is rounding like any other, and the literal
// spellings of infinity and NaN set no ERANGE, so they stay numbers.
bool ParsesAsDouble(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && !(errno == ERANGE && std::isinf(v));
}

bool NeedsQuoting(const std::string& s, char delimiter) {
  for (char c : s) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

Result<Table> ReadCsv(const std::string& text, const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  {
    std::istringstream stream(text);
    std::string line;
    size_t line_no = 0;
    while (std::getline(stream, line)) {
      ++line_no;
      if (line.empty() || (line.size() == 1 && line[0] == '\r')) continue;
      std::vector<std::string> fields;
      if (!SplitRecord(line, options.delimiter, &fields)) {
        return Status::ParseError("unterminated quote on line " +
                                  std::to_string(line_no));
      }
      records.push_back(std::move(fields));
    }
  }
  if (records.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }

  std::vector<std::string> names;
  size_t first_data_row = 0;
  if (options.header) {
    names = records[0];
    first_data_row = 1;
  } else {
    for (size_t c = 0; c < records[0].size(); ++c) {
      names.push_back("c" + std::to_string(c));
    }
  }
  const size_t num_columns = names.size();
  for (size_t r = first_data_row; r < records.size(); ++r) {
    if (records[r].size() != num_columns) {
      return Status::ParseError(
          "row " + std::to_string(r + 1) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(num_columns));
    }
  }

  auto is_null = [&options](const std::string& field) {
    return field.empty() || field == options.null_token;
  };

  // Type inference over the leading data rows.
  std::vector<ValueType> types(num_columns, ValueType::kInt64);
  const size_t sample_end =
      std::min(records.size(),
               first_data_row + options.type_inference_rows);
  for (size_t c = 0; c < num_columns; ++c) {
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (size_t r = first_data_row; r < sample_end; ++r) {
      const std::string& field = records[r][c];
      if (is_null(field)) continue;
      any_value = true;
      all_int = all_int && ParsesAsInt(field);
      all_double = all_double && ParsesAsDouble(field);
    }
    if (!any_value) {
      types[c] = ValueType::kString;
    } else if (all_int) {
      types[c] = ValueType::kInt64;
    } else if (all_double) {
      types[c] = ValueType::kDouble;
    } else {
      types[c] = ValueType::kString;
    }
  }

  Schema schema;
  for (size_t c = 0; c < num_columns; ++c) {
    schema.AddColumn(Column(names[c], types[c]));
  }
  Table table(std::move(schema));
  table.Reserve(records.size() - first_data_row);
  for (size_t r = first_data_row; r < records.size(); ++r) {
    Row row;
    row.reserve(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      const std::string& field = records[r][c];
      if (is_null(field)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt64:
          if (!ParsesAsInt(field)) {
            return Status::ParseError("row " + std::to_string(r + 1) +
                                      " column '" + names[c] +
                                      "': expected integer, got '" + field +
                                      "'");
          }
          row.push_back(Value::Int64(std::strtoll(field.c_str(), nullptr, 10)));
          break;
        case ValueType::kDouble:
          if (!ParsesAsDouble(field)) {
            return Status::ParseError("row " + std::to_string(r + 1) +
                                      " column '" + names[c] +
                                      "': expected number, got '" + field +
                                      "'");
          }
          row.push_back(Value::Double(std::strtod(field.c_str(), nullptr)));
          break;
        default:
          row.push_back(Value::String(field));
          break;
      }
    }
    table.AddRow(std::move(row));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  if (IOLAP_FAILPOINT(Failpoint::kCsvReadFault, HashBytes(path))) {
    return Status::ExecutionError("injected transient read fault: " + path);
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ReadCsv(buffer.str(), options);
}

Result<Table> ReadCsvFileWithRetry(const std::string& path,
                                   const CsvOptions& options,
                                   const CsvRetryOptions& retry,
                                   int* attempts) {
  const int max_attempts = std::max(1, retry.max_attempts);
  double backoff = retry.initial_backoff_sec;
  Result<Table> result = Status::Internal("retry loop did not run");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempts != nullptr) *attempts = attempt;
    result = ReadCsvFile(path, options);
    if (result.ok()) return result;
    const StatusCode code = result.status().code();
    const bool transient =
        code == StatusCode::kExecutionError || code == StatusCode::kInternal;
    if (!transient || attempt == max_attempts) return result;
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(backoff, retry.max_backoff_sec)));
    }
    backoff = backoff > 0.0 ? backoff * 2.0 : 0.0;
  }
  return result;
}

std::string WriteCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  auto emit_field = [&](const std::string& field) {
    if (NeedsQuoting(field, options.delimiter)) {
      out += '"';
      for (char c : field) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    } else {
      out += field;
    }
  };
  if (options.header) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      emit_field(table.schema().column(c).name);
    }
    out += '\n';
  }
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += options.delimiter;
      if (row[c].is_null()) {
        out += options.null_token;
      } else {
        emit_field(row[c].ToString());
      }
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::InvalidArgument("cannot write file: " + path);
  }
  file << WriteCsv(table, options);
  return file.good() ? Status::OK()
                     : Status::Internal("write failed: " + path);
}

}  // namespace iolap
