//! LEB128 variable-length integers over in-memory buffers.
//!
//! Decoders take the buffer plus a cursor they advance, and a `base`
//! offset locating the buffer within the file so errors report absolute
//! file positions.

use crate::EtraceError;

/// Appends `value` as unsigned LEB128.
pub(crate) fn put_uleb(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` as signed LEB128 (zigzag-free, sign-extended form).
pub(crate) fn put_sleb(out: &mut Vec<u8>, mut value: i64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        let sign_clear = byte & 0x40 == 0;
        if (value == 0 && sign_clear) || (value == -1 && !sign_clear) {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 at `*cursor`, advancing it.
///
/// # Errors
///
/// [`EtraceError::Truncated`] if the buffer ends mid-value,
/// [`EtraceError::InvalidPacket`] if the encoding runs past 64 bits.
pub(crate) fn get_uleb(buf: &[u8], cursor: &mut usize, base: u64) -> Result<u64, EtraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*cursor) else {
            return Err(EtraceError::Truncated { offset: base + *cursor as u64 });
        };
        if shift >= 64 {
            return Err(EtraceError::InvalidPacket { value: byte, offset: base + *cursor as u64 });
        }
        *cursor += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads a signed LEB128 at `*cursor`, advancing it.
///
/// # Errors
///
/// As [`get_uleb`].
pub(crate) fn get_sleb(buf: &[u8], cursor: &mut usize, base: u64) -> Result<i64, EtraceError> {
    let mut value = 0i64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*cursor) else {
            return Err(EtraceError::Truncated { offset: base + *cursor as u64 });
        };
        if shift >= 64 {
            return Err(EtraceError::InvalidPacket { value: byte, offset: base + *cursor as u64 });
        }
        *cursor += 1;
        value |= i64::from(byte & 0x7f) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            if shift < 64 && byte & 0x40 != 0 {
                value |= -1i64 << shift;
            }
            return Ok(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_round_trip_across_widths() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            put_uleb(&mut buf, v);
            let mut cursor = 0;
            assert_eq!(get_uleb(&buf, &mut cursor, 0).unwrap(), v);
            assert_eq!(cursor, buf.len());
        }
    }

    #[test]
    fn signed_round_trip_across_signs() {
        let values = [0i64, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN, -123_456_789];
        for &v in &values {
            let mut buf = Vec::new();
            put_sleb(&mut buf, v);
            let mut cursor = 0;
            assert_eq!(get_sleb(&buf, &mut cursor, 0).unwrap(), v, "{v}");
            assert_eq!(cursor, buf.len());
        }
    }

    #[test]
    fn small_deltas_cost_one_byte() {
        for v in -64i64..=63 {
            let mut buf = Vec::new();
            put_sleb(&mut buf, v);
            assert_eq!(buf.len(), 1, "{v}");
        }
    }

    #[test]
    fn truncated_input_reports_absolute_offset() {
        let mut buf = Vec::new();
        put_uleb(&mut buf, u64::MAX);
        buf.pop();
        let mut cursor = 0;
        match get_uleb(&buf, &mut cursor, 100) {
            Err(EtraceError::Truncated { offset }) => assert_eq!(offset, 100 + buf.len() as u64),
            other => panic!("want Truncated, got {other:?}"),
        }
    }

    #[test]
    fn overlong_encoding_is_invalid_not_looping() {
        let buf = [0x80u8; 12];
        let mut cursor = 0;
        assert!(matches!(get_uleb(&buf, &mut cursor, 0), Err(EtraceError::InvalidPacket { .. })));
    }
}
