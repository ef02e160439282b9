// The one round-trippable double formatter behind JsonWriter::value(double),
// dump_json and CsvWriter::write_row(vector<double>). Between them they
// write every job-key echo, manifest_to_json and ResultStore record. Other
// outputs keep their own fixed precision (manifest_to_csv's %.6f/%.3f/%.1f,
// the per-round metrics CSV's %.9g, the dataset loaders' %.6g/%.8g) and are
// not round-trippable.
//
// Its output is byte-for-byte printf("%.17g", v) in the "C" locale: the
// standard defines std::to_chars(first, last, v, chars_format::general, 17)
// as exactly that conversion. Job keys hash these bytes and ResultStore
// records are made of them, so the format must never drift
// (tests/util/test_json.cpp holds it to snprintf as an oracle).
// Non-finite values come out as printf spells them ("inf", "-nan", ...);
// JSON callers map them to null first.
#pragma once

#include <string>

namespace qlec {

/// Appends printf("%.17g", v)'s text to `out`.
void append_g17(std::string& out, double v);

/// printf("%.17g", v)'s text as a string.
std::string format_g17(double v);

}  // namespace qlec
