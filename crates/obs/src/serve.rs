//! A minimal Prometheus scrape endpoint on a plain `std::net::TcpListener`
//! thread. The workspace builds fully offline, so there is no HTTP crate:
//! the server speaks just enough HTTP/1.0 for `curl`/Prometheus — read the
//! request head, answer any `GET` with the registry rendering, close.

use crate::registry::MetricsRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running scrape endpoint. Shut down explicitly with
/// [`shutdown`](MetricsServer::shutdown) or implicitly on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// serves `registry` renderings from a background thread until
    /// shutdown.
    pub fn start(addr: &str, registry: Arc<MetricsRegistry>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle =
            std::thread::Builder::new().name("sr-obs-metrics".into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop_thread.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection; errors on a single
                        // scrape must not take the endpoint down.
                        let _ = serve_one(stream, &registry);
                    }
                }
            })?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves the actual port when started with
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept call.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Handles one connection: read the request head, reply to `GET` with the
/// exposition text, anything else with 405.
fn serve_one(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = [0u8; 1024];
    let n = stream.read(&mut head)?;
    let request = String::from_utf8_lossy(&head[..n]);
    let (status, body) = if request.starts_with("GET ") {
        ("200 OK", registry.render_prometheus())
    } else {
        ("405 Method Not Allowed", String::new())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n{body}",
        len = body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Performs one scrape against a running server — the `curl` equivalent
/// used by the CLI's end-of-run self-check and the CI smoke test.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected scrape response: {}", response.lines().next().unwrap_or("")),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scrape_round_trip_serves_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let up = Arc::new(AtomicU64::new(1));
        let shared = Arc::clone(&up);
        registry.register_counter_fn("up_total", &[], move || shared.load(Ordering::Relaxed));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let body = scrape(server.local_addr()).unwrap();
        assert!(body.contains("# TYPE up_total counter"), "{body}");
        assert!(body.contains("up_total 1"), "{body}");
        // A second scrape sees live updates.
        up.fetch_add(1, Ordering::Relaxed);
        let body = scrape(server.local_addr()).unwrap();
        assert!(body.contains("up_total 2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn non_get_requests_get_405() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", registry).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.shutdown();
    }
}
