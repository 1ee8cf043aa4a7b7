//! Minimal HTTP/1.1 request/response heads.
//!
//! Plain-text HTTP still carries 12.1 % of the paper's traffic
//! (Table 1), mostly Microsoft/Sky software updates and video. The
//! monitor extracts the `Host` header from requests on port 80,
//! exactly like Tstat's HTTP DPI module.

use bytes::Bytes;
use std::io::Write;

/// Build an HTTP/1.1 GET request head.
pub fn get_request(host: &str, path: &str, user_agent: &str) -> Bytes {
    let mut b = Vec::new();
    get_request_into(&mut b, host, path, user_agent);
    Bytes::from(b)
}

/// Append-into twin of [`get_request`] for the payload arena.
pub fn get_request_into(buf: &mut Vec<u8>, host: &str, path: &str, user_agent: &str) {
    write!(
        buf,
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {user_agent}\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n"
    )
    .expect("write to Vec cannot fail");
}

/// Build an HTTP/1.1 response head announcing `content_length` bytes.
pub fn ok_response(content_length: u64, content_type: &str) -> Bytes {
    let mut b = Vec::new();
    ok_response_into(&mut b, content_length, content_type);
    Bytes::from(b)
}

/// Append-into twin of [`ok_response`].
pub fn ok_response_into(buf: &mut Vec<u8>, content_length: u64, content_type: &str) {
    write!(
        buf,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\nServer: sw-origin\r\n\r\n"
    )
    .expect("write to Vec cannot fail");
}

/// True if the buffer begins like an HTTP/1.x request.
pub fn looks_like_request(buf: &[u8]) -> bool {
    const METHODS: [&[u8]; 5] = [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"OPTIONS "];
    METHODS.iter().any(|m| buf.starts_with(m))
}

/// True if the buffer begins like an HTTP/1.x response.
pub fn looks_like_response(buf: &[u8]) -> bool {
    buf.starts_with(b"HTTP/1.")
}

/// Extract the `Host` header value from a request head, case-insensitively.
/// Only inspects the head (up to the first empty line), like a DPI
/// engine working on the first data segment.
pub fn extract_host(buf: &[u8]) -> Option<String> {
    if !looks_like_request(buf) {
        return None;
    }
    let head_end = find_head_end(buf).unwrap_or(buf.len());
    let head = &buf[..head_end];
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if let Some(colon) = line.iter().position(|&b| b == b':') {
            let (name, value) = line.split_at(colon);
            if name.eq_ignore_ascii_case(b"host") {
                let v = value[1..].iter().copied().skip_while(|&b| b == b' ').collect::<Vec<u8>>();
                // strip optional :port
                let v = match v.iter().position(|&b| b == b':') {
                    Some(p) => v[..p].to_vec(),
                    None => v,
                };
                return String::from_utf8(v).ok().filter(|s| !s.is_empty());
            }
        }
    }
    None
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_host_round_trip() {
        let req = get_request("download.microsoft.com", "/update/x64.cab", "WindowsUpdate/10");
        assert!(looks_like_request(&req));
        assert!(!looks_like_response(&req));
        assert_eq!(extract_host(&req).as_deref(), Some("download.microsoft.com"));
    }

    #[test]
    fn host_with_port_is_stripped() {
        let raw = b"GET / HTTP/1.1\r\nHost: cdn.sky.com:8080\r\n\r\n";
        assert_eq!(extract_host(raw).as_deref(), Some("cdn.sky.com"));
    }

    #[test]
    fn host_case_insensitive() {
        let raw = b"GET / HTTP/1.1\r\nhOsT: example.com\r\n\r\n";
        assert_eq!(extract_host(raw).as_deref(), Some("example.com"));
    }

    #[test]
    fn missing_host_is_none() {
        let raw = b"GET / HTTP/1.1\r\nAccept: */*\r\n\r\n";
        assert_eq!(extract_host(raw), None);
        assert_eq!(extract_host(b"FOO bar"), None);
        assert_eq!(extract_host(b""), None);
    }

    #[test]
    fn headers_after_body_ignored() {
        let raw = b"GET / HTTP/1.1\r\nAccept: */*\r\n\r\nHost: smuggled.example\r\n";
        assert_eq!(extract_host(raw), None);
    }
}
