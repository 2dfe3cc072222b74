//! The scrape endpoint: one blocking thread serving the service's
//! metrics registry over plain HTTP/1.0.
//!
//! Deliberately minimal — a [`std::net::TcpListener`], no framework, no
//! keep-alive, no TLS. Two routes:
//!
//! * `GET /metrics` — the registry in Prometheus text exposition format
//!   ([`OptimizerService::metrics_text`]).
//! * `GET /stats.json` — [`ServiceStats`](crate::ServiceStats) as JSON.
//!
//! The endpoint is opt-in (it exists once its owner calls
//! [`MetricsServer::spawn`]) and entirely out of band: the request path of
//! the service never touches it, and a wedged scraper — one that sends
//! nothing, drips its request a byte at a time, or never reads the
//! response — can at worst stall this one thread for [`SCRAPE_TIMEOUT`]:
//! the deadline covers the whole connection, not each `read` or `write`
//! call.

use crate::OptimizerService;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one connection may take, from accept to the last response
/// byte, before the server drops it.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_millis(500);

/// Handle to a running scrape endpoint. Dropping it (or calling
/// [`MetricsServer::stop`]) shuts the server down and joins its thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and serve `service`'s metrics from a dedicated
    /// thread. Use port 0 for an ephemeral port; the bound address is
    /// available via [`MetricsServer::local_addr`].
    pub fn spawn(
        service: Arc<OptimizerService>,
        addr: SocketAddr,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("dpnext-metrics".to_string())
            .spawn(move || serve_loop(&listener, &service, &thread_stop))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the server down and join its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection wakes it so it
        // observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: &TcpListener, service: &OptimizerService, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Accept errors (e.g. a connection reset before accept) are not
        // fatal to the endpoint; per-connection I/O errors even less so.
        if let Ok(mut conn) = conn {
            let _ = handle_conn(&mut conn, service);
        }
    }
}

/// What is left until `deadline`, as the timeout of the next socket call
/// (a zero timeout is not one the socket API accepts).
fn time_left(deadline: Instant) -> std::io::Result<Duration> {
    match deadline.saturating_duration_since(Instant::now()) {
        Duration::ZERO => Err(std::io::ErrorKind::TimedOut.into()),
        left => Ok(left),
    }
}

fn handle_conn(conn: &mut TcpStream, service: &OptimizerService) -> std::io::Result<()> {
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    // Read until the header-terminating blank line (clients may split
    // the request across writes), EOF, or a size bound.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        conn.set_read_timeout(Some(time_left(deadline)?))?;
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            service.metrics_text(),
        ),
        "/stats.json" => ("200 OK", "application/json", service.stats().render_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /stats.json\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut unsent = response.as_bytes();
    while !unsent.is_empty() {
        conn.set_write_timeout(Some(time_left(deadline)?))?;
        match conn.write(unsent)? {
            0 => return Err(std::io::ErrorKind::WriteZero.into()),
            n => unsent = &unsent[n..],
        }
    }
    Ok(())
}
