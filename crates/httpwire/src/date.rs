//! HTTP-date formatting and parsing (RFC 1123 fixed-format, the preferred
//! form in both HTTP/1.0 and HTTP/1.1).
//!
//! Dates are modelled as seconds since the Unix epoch (`u64`); the
//! simulator's experiments run against a fixed virtual calendar, so no
//! system clock is ever consulted.

use std::fmt;

const DAYS: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];
const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Convert days-since-epoch to (year, month 1-12, day 1-31) using Howard
/// Hinnant's civil-from-days algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Inverse of [`civil_from_days`].
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Epoch seconds that display as an RFC 1123 HTTP-date, e.g.
/// `Sun, 06 Nov 1994 08:49:37 GMT`: what a header value is written from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpDate(pub u64);

impl fmt::Display for HttpDate {
    /// A date before the year 10000 is put together in a 29-byte array
    /// and written in one piece; a later one goes through `write!`, to
    /// the same text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = (self.0 / 86_400) as i64;
        let secs = self.0 % 86_400;
        let (y, m, d) = civil_from_days(days);
        let (day, month) = (DAYS[(days % 7) as usize], MONTHS[(m - 1) as usize]);
        let (hh, mm, ss) = (secs / 3600, (secs / 60) % 60, secs % 60);
        if y > 9999 {
            return write!(f, "{day}, {d:02} {month} {y} {hh:02}:{mm:02}:{ss:02} GMT");
        }
        let mut text = *b"Ddd, DD Mmm YYYY hh:mm:ss GMT";
        let digits = |out: &mut [u8], mut n: u64| {
            for b in out.iter_mut().rev() {
                *b = b'0' + (n % 10) as u8;
                n /= 10;
            }
        };
        text[..3].copy_from_slice(day.as_bytes());
        digits(&mut text[5..7], u64::from(d));
        text[8..11].copy_from_slice(month.as_bytes());
        digits(&mut text[12..16], y as u64);
        digits(&mut text[17..19], hh);
        digits(&mut text[20..22], mm);
        digits(&mut text[23..25], ss);
        f.write_str(std::str::from_utf8(&text).expect("an HTTP-date is ASCII"))
    }
}

/// Parse an RFC 1123 HTTP-date back to epoch seconds. Returns `None` for
/// malformed input (the obsolete RFC 850 and asctime forms are not
/// emitted by any component in this workspace).
pub fn parse_http_date(s: &str) -> Option<u64> {
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let s = s.trim();
    let rest = s.split_once(", ")?.1;
    let mut parts = rest.split_ascii_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let mon_name = parts.next()?;
    let month = MONTHS.iter().position(|&m| m == mon_name)? as u32 + 1;
    let year: i64 = parts.next()?.parse().ok()?;
    let hms = parts.next()?;
    let tz = parts.next()?;
    if tz != "GMT" {
        return None;
    }
    let mut hms_it = hms.split(':');
    let h: u64 = hms_it.next()?.parse().ok()?;
    let mi: u64 = hms_it.next()?.parse().ok()?;
    let sec: u64 = hms_it.next()?.parse().ok()?;
    if h > 23 || mi > 59 || sec > 60 || day == 0 || day > 31 {
        return None;
    }
    let days = days_from_civil(year, month, day);
    if days < 0 {
        return None;
    }
    Some(days as u64 * 86_400 + h * 3600 + mi * 60 + sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_example() {
        // The canonical example from RFC 2068.
        assert_eq!(
            HttpDate(784_111_777).to_string(),
            "Sun, 06 Nov 1994 08:49:37 GMT"
        );
        assert_eq!(
            parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT"),
            Some(784_111_777)
        );
    }

    #[test]
    fn a_date_reads_as_write_formats_it() {
        let written = |secs: u64| {
            let days = (secs / 86_400) as i64;
            let (y, m, d) = civil_from_days(days);
            let (day, month) = (DAYS[(days % 7) as usize], MONTHS[(m - 1) as usize]);
            let s = secs % 86_400;
            let (hh, mm, ss) = (s / 3600, (s / 60) % 60, s % 60);
            format!("{day}, {d:02} {month} {y} {hh:02}:{mm:02}:{ss:02} GMT")
        };
        // Every day of the years 1970 to 2100 at a moving time of day, and
        // either side of the year 10000.
        let days = (0..48_000u64).map(|day| day * 86_400 + day * 7_919 % 86_400);
        let y10k = days_from_civil(10_000, 1, 1) as u64 * 86_400;
        for s in days.chain([y10k - 1, y10k, u64::MAX]) {
            assert_eq!(HttpDate(s).to_string(), written(s), "{s}");
        }
        assert!(HttpDate(y10k - 1)
            .to_string()
            .ends_with("Dec 9999 23:59:59 GMT"));
        assert!(HttpDate(y10k)
            .to_string()
            .ends_with("Jan 10000 00:00:00 GMT"));
    }

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(HttpDate(0).to_string(), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn paper_era_date() {
        // 24 June 1997, the NOTE's date.
        let t = parse_http_date("Tue, 24 Jun 1997 12:00:00 GMT").unwrap();
        assert_eq!(HttpDate(t).to_string(), "Tue, 24 Jun 1997 12:00:00 GMT");
    }

    #[test]
    fn roundtrip_many() {
        for &t in &[
            0u64,
            1,
            86_399,
            86_400,
            784_111_777,
            867_715_200,
            4_102_444_800,
        ] {
            assert_eq!(parse_http_date(&HttpDate(t).to_string()), Some(t), "t={t}");
        }
    }

    #[test]
    fn leap_year_handling() {
        // 29 Feb 1996 existed.
        let t = parse_http_date("Thu, 29 Feb 1996 00:00:00 GMT").unwrap();
        assert_eq!(HttpDate(t).to_string(), "Thu, 29 Feb 1996 00:00:00 GMT");
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(parse_http_date("not a date"), None);
        assert_eq!(parse_http_date("Sun, 06 Nov 1994 08:49:37 PST"), None);
        assert_eq!(parse_http_date("Sun, 32 Nov 1994 08:49:37 GMT"), None);
        assert_eq!(parse_http_date(""), None);
    }
}
